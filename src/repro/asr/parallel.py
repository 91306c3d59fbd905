"""Utterance-parallel decoding.

Viterbi beam search over one utterance is inherently sequential
(frame ``t + 1`` needs frame ``t``'s frontier), but utterances are
independent — the natural unit of parallelism for a software decoder
serving a batch.  :class:`DecodePool` fans a batch of utterances out
over worker processes.  The recognizer is packed *once in the parent*
into a named shared-memory segment (:func:`repro.shm.pack_recognizer`,
weights rounded to float32); each worker's initializer attaches the
segment and decodes from zero-copy read-only views.  Every worker therefore maps
the same physical pages — unlike fork copy-on-write inheritance, where
refcount churn progressively privatizes the "shared" recognizer, and
unlike pickling, which copies it per worker up front.  This holds
under both ``fork`` and ``spawn`` start methods.

The pool is persistent: keep one around and feed it batch after batch —
``AsrSystem.transcribe`` does exactly that.  Jobs are submitted with a
``chunksize`` so a batch crosses the process boundary in a few pickles
per worker, not one round-trip per utterance.

Determinism contract: results — including the activity counters in
``DecoderStats`` — are identical for every parallelism level, in
submission order.  A pool never traces, so its decoders carry no
state from one utterance to the next, and counters are independent of
how utterances land on workers.  Whenever a scorer is supplied the
pool decodes the *persisted* recognizer's weights — the bundle stores
arc weights in the paper's 32-bit format, so a serial in-memory run
over the original float64 graphs would differ from the workers' in
the last bits.  The serial path decodes the caller's own graphs over
the tables a worker attaches: ``DecoderTables.from_graphs(...,
np.float32)``, as :func:`~repro.shm.pack_recognizer` builds them,
rounds each weight column exactly as the bundle codec does, without
building a round-tripped copy of the graphs.  ``parallelism=1``
without a scorer decodes the given graphs' float64 weights directly
(no worker machinery either way).

Asking for ``parallelism > 1`` on a host exposing a single CPU decodes
serially in-process instead: forked workers would only add
serialization overhead on top of zero actual concurrency.

A serial pool whose scorer is recurrent
(:func:`~repro.am.scorer.is_recurrent`: the RNN) scores ahead on a
host with two or more visible CPUs: one worker process, forked as the
pool is built, scores each utterance a block of rows at a time
(:meth:`~repro.am.rnn.RnnAcousticModel.score_blocks`) and sends the
blocks down a pipe, while the pool searches the blocks that have
arrived (:meth:`~repro.core.decoder.OnTheFlyDecoder.decode_blocks`).
One utterance is in flight at a time.  The blocks are the rows
``score()`` returns, and the search consumes any chunking of them
alike (the streaming parity contract), so the results are the serial
ones.  If the worker dies, the utterance it was scoring is rescored
in-process from frame 0, and so is everything after it.
Frame-parallel scorers (GMM, DNN) score in-process: their scoring is
too small a share of a frame to pay for the two processes'
contention.

The pool's ``strategy`` names what it was built as: ``serial``,
``score-ahead`` or ``pool[N]``.

Streams need no entry point of their own: a streamed final equals the
decode of the same scores (the streaming parity contract), so a batch
of streams is a batch for :meth:`DecodePool.decode_scores`.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.am.graph import AmGraph
from repro.am.scorer import AcousticScorer, is_recurrent
from repro.core.decoder import (
    DecodeResult,
    DecoderConfig,
    DecoderTables,
    OnTheFlyDecoder,
)
from repro.cpus import visible_cpus
from repro.lm.graph import LmGraph
from repro.shm import attach_recognizer, pack_recognizer


# Per-worker-process state, installed by the pool initializer.  The
# attached handle is kept alive for the worker's lifetime — its views
# into the shared segment back the decoder's tables.
_WORKER_DECODER: OnTheFlyDecoder | None = None
_WORKER_SCORER: AcousticScorer | None = None
_WORKER_ATTACHED = None


def _shm_worker_init(segment: str, config: DecoderConfig) -> None:
    """Attach the parent's shared segment; one attach per worker life."""
    global _WORKER_DECODER, _WORKER_SCORER, _WORKER_ATTACHED
    _WORKER_ATTACHED = attach_recognizer(segment)
    _WORKER_DECODER = OnTheFlyDecoder(
        _WORKER_ATTACHED.am,
        _WORKER_ATTACHED.lm,
        config,
        tables=_WORKER_ATTACHED.tables,
    )
    _WORKER_SCORER = _WORKER_ATTACHED.scorer


def _decode_scores_job(scores: np.ndarray) -> DecodeResult:
    assert _WORKER_DECODER is not None
    return _WORKER_DECODER.decode(scores)


def _decode_features_job(features: np.ndarray) -> DecodeResult:
    assert _WORKER_DECODER is not None and _WORKER_SCORER is not None
    return _WORKER_DECODER.decode(_WORKER_SCORER.score(features))


#: What the pool sends its score-ahead worker to make it exit.  The
#: worker does not wait for its pipe's end of file: a process forked
#: later (another pool's worker) holds a copy of the pipe's write end.
_STOP = None


def _score_ahead_main(scorer, commands, blocks) -> None:
    """The score-ahead worker: score each utterance's features the pool
    sends, one ``send_bytes`` per block of rows, until the stop
    message.  A scoring error is sent as an empty message followed by
    the exception."""
    # Ctrl-C is the pool's process's to handle; it stops the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while (features := commands.recv()) is not _STOP:
            try:
                if len(features):  # a zero-frame utterance is owed no rows
                    for block in scorer.score_blocks(features):
                        blocks.send_bytes(block)
            except Exception as exc:
                blocks.send_bytes(b"")
                blocks.send(exc)
    except (EOFError, OSError):  # the pool's process is gone
        pass


class _WorkerLost(Exception):
    """The score-ahead worker died or its pipes broke."""


class _ScoreAhead:
    """The pool's end of its score-ahead worker.

    :meth:`send` hands it one utterance's features, and :meth:`blocks`
    reads that utterance's score rows back into one matrix, as they
    arrive.
    """

    def __init__(self, scorer: AcousticScorer) -> None:
        context = multiprocessing.get_context("fork")
        commands, self._commands = context.Pipe(duplex=False)
        self._blocks, blocks = context.Pipe(duplex=False)
        self._width = scorer.num_senones
        #: Rows of the utterance sent that have not arrived yet.
        self.owed = 0
        # The worker's copy of every object alive now stays out of its
        # cyclic collector's passes: a pass writes to every object it
        # visits, which would copy the pages it shares with the pool.
        # The pool's process is left as it was: frozen only for the
        # fork, and not at all if it had frozen objects of its own.
        scoped = gc.get_freeze_count() == 0
        if scoped:
            gc.freeze()
        self.process = context.Process(
            target=_score_ahead_main,
            args=(scorer, commands, blocks),
            name="score-ahead",
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            if scoped:
                gc.unfreeze()
        commands.close()
        blocks.close()

    def send(self, features: np.ndarray) -> None:
        features = np.asarray(features)
        try:
            self._commands.send(features)
        except OSError as exc:
            raise _WorkerLost from exc
        self.owed = len(features)

    def blocks(self) -> Iterator[np.ndarray]:
        """The score rows of the utterance sent: each time, every row
        that has arrived and not been yielded."""
        frames = self.owed
        scores = np.empty((frames, self._width))
        buffer = scores.view(np.uint8).reshape(-1)  # the same memory
        row_bytes = scores.itemsize * self._width
        at = 0
        while self.owed:
            ready = frames - self.owed
            ready += self._receive(buffer, ready * row_bytes) // row_bytes
            while ready < frames and self._blocks.poll():
                ready += self._receive(buffer, ready * row_bytes) // row_bytes
            self.owed = frames - ready
            if self.owed:
                yield scores[at:ready]
                at = ready
        yield scores[at:]

    def _receive(self, buffer: np.ndarray, offset: int) -> int:
        try:
            size = self._blocks.recv_bytes_into(buffer, offset)
            error = self._blocks.recv() if size == 0 else None
        except (EOFError, OSError) as exc:
            raise _WorkerLost from exc
        if error is not None:  # the worker's scoring raised
            self.owed = 0
            raise error
        return size

    def close(self) -> None:
        """Stop the worker (kill it if it owes rows, or has not stopped
        10 s after the stop message) and reap it."""
        if self.owed or not self.process.is_alive():
            self.process.kill()
        else:
            try:
                self._commands.send(_STOP)
            except OSError:
                pass
            self.process.join(10.0)
            if self.process.exitcode is None:
                self.process.kill()
        self.process.join()
        self._commands.close()
        self._blocks.close()


class DecodePool:
    """Decode batches of utterances, optionally across processes.

    Args:
        am / lm: recognition graphs.
        scorer: acoustic scorer; required for :meth:`decode_utterances`.
        config: decoder configuration shared by every worker.
        parallelism: worker process count; ``1`` decodes in-process,
            and so does any count on a host that exposes a single
            visible CPU, where workers would time-slice one core.
            A serial pool of a recurrent scorer on a host with two or
            more visible CPUs searches in-process and scores ahead in
            one forked worker.  Results are identical either way.

    ``strategy`` names what the pool was built as — ``serial``,
    ``score-ahead`` or ``pool[N]`` — and keeps naming it after
    :meth:`close`.  :meth:`close` stops and reaps every process the
    pool started.
    """

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        scorer: AcousticScorer | None = None,
        config: DecoderConfig | None = None,
        parallelism: int = 1,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if parallelism > 1 and scorer is None:
            raise ValueError(
                "a scorer is required to ship the recognizer bundle "
                "to worker processes"
            )
        self.requested_parallelism = parallelism
        if parallelism > 1 and visible_cpus() < 2:
            # One visible core: worker processes can't overlap, they
            # just add pickling and scheduling.  Decode serially
            # instead — the determinism contract makes this invisible
            # apart from ``strategy``.
            parallelism = 1
        self.config = config or DecoderConfig()
        self.parallelism = parallelism
        self._scorer = scorer
        self._executor: ProcessPoolExecutor | None = None
        self._ahead: _ScoreAhead | None = None
        self._decoder: OnTheFlyDecoder | None = None
        self._shm = None
        #: How this pool decodes: ``serial``, ``score-ahead`` or
        #: ``pool[N]``; what it was built as, also after :meth:`close`.
        self.strategy = "serial"
        if scorer is not None:
            if parallelism == 1:
                # Decode the deployable artifact: the tables a worker
                # attaches, weights rounded to the persisted 32-bit
                # format, over the caller's own graphs.
                tables = DecoderTables.from_graphs(am, lm, np.float32)
                self._decoder = OnTheFlyDecoder(
                    am, lm, self.config, tables=tables
                )
                if is_recurrent(scorer) and visible_cpus() >= 2:
                    self._ahead = _ScoreAhead(scorer)
                    self.strategy = "score-ahead"
            else:
                # Pack the recognizer once; every worker's initializer
                # attaches the segment (no bundle load, no graph or
                # CSR construction, no COW privatization).
                self._shm = pack_recognizer(am, lm, scorer)
                if "fork" in multiprocessing.get_all_start_methods():
                    # Fork is still the cheaper launch; the recognizer
                    # arrives via the segment either way.
                    mp_context = multiprocessing.get_context("fork")
                else:  # pragma: no cover - spawn-only platforms
                    mp_context = multiprocessing.get_context("spawn")
                self._executor = ProcessPoolExecutor(
                    max_workers=parallelism,
                    mp_context=mp_context,
                    initializer=_shm_worker_init,
                    initargs=(self._shm.segment_name, self.config),
                )
                self.strategy = f"pool[{parallelism}]"
        else:
            self._decoder = OnTheFlyDecoder(am, lm, self.config)

    def _chunksize(self, num_jobs: int) -> int:
        """Batch jobs per pickle: a couple of chunks per worker."""
        return max(1, num_jobs // (self.parallelism * 2))

    # -- batch entry points -------------------------------------------------

    def decode_scores(self, scores: list[np.ndarray]) -> list[DecodeResult]:
        """Decode pre-computed score matrices; results in input order."""
        if self._executor is None:
            assert self._decoder is not None
            return [self._decoder.decode(s) for s in scores]
        return list(
            self._executor.map(
                _decode_scores_job, scores, chunksize=self._chunksize(len(scores))
            )
        )

    def decode_utterances(self, utterances) -> list[DecodeResult]:
        """Score and decode utterances; results in input order."""
        if self._scorer is None:
            raise ValueError("DecodePool built without a scorer")
        if self._ahead is not None:
            return self._decode_ahead([u.features for u in utterances])
        if self._executor is None:
            assert self._decoder is not None
            return [
                self._decoder.decode(self._scorer.score(u.features))
                for u in utterances
            ]
        return list(
            self._executor.map(
                _decode_features_job,
                [u.features for u in utterances],
                chunksize=self._chunksize(len(utterances)),
            )
        )

    def _decode_ahead(self, features: list[np.ndarray]) -> list[DecodeResult]:
        """:meth:`decode_utterances` through the score-ahead worker,
        scoring in-process from the first utterance it does not
        finish."""
        decoder = self._decoder
        assert decoder is not None
        results = []
        for utterance in features:
            ahead = self._ahead
            if ahead is not None:
                try:
                    ahead.send(utterance)
                    results.append(decoder.decode_blocks(ahead.blocks()))
                    continue
                except _WorkerLost:
                    self._stop_ahead()
                except BaseException:
                    # Rows still in flight would reach the next call
                    # out of order: the worker goes.
                    if ahead.owed:
                        self._stop_ahead()
                    raise
            results.append(decoder.decode(self._scorer.score(utterance)))
        return results

    def _stop_ahead(self) -> None:
        if self._ahead is not None:
            self._ahead.close()
            self._ahead = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._stop_ahead()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._shm is not None:
            self._shm.unlink()
            self._shm = None

    def __enter__(self) -> "DecodePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
