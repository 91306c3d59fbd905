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
submission order.  Two mechanisms make that hold:

* every utterance starts from cold per-decode caches (an O(1)
  ``LmLookup.reset_transient_state()``: Offset Lookup Table plus the
  LM expansion cache), so counters are independent of how utterances
  land on workers;
* whenever a scorer is supplied the pool decodes the *persisted*
  recognizer's weights — the bundle stores arc weights in the paper's
  32-bit format, so a serial in-memory run over the original float64
  graphs would differ from the workers' in the last bits.  The serial
  path decodes the caller's own graphs over the tables a worker
  attaches: ``DecoderTables.from_graphs(..., np.float32)``, as
  :func:`~repro.shm.pack_recognizer` builds them, rounds each weight
  column exactly as the bundle codec does, without building a
  round-tripped copy of the graphs.  ``parallelism=1`` without a
  scorer decodes the given graphs' float64 weights directly (no
  worker machinery either way).

Asking for ``parallelism > 1`` on a host exposing a single CPU decodes
serially in-process instead: forked workers would only add
serialization overhead on top of zero actual concurrency.  The pool's
``strategy`` names the path it took: ``serial`` or ``pool[N]``.

Streams need no entry point of their own: a streamed final equals the
decode of the same scores (the streaming parity contract), so a batch
of streams is a batch for :meth:`DecodePool.decode_scores`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.am.graph import AmGraph
from repro.am.scorer import AcousticScorer
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


def _cold_decode(decoder: OnTheFlyDecoder, scores: np.ndarray) -> DecodeResult:
    """Decode one utterance from cold per-decode caches."""
    decoder.lookup.reset_transient_state()
    return decoder.decode(scores)


def _decode_scores_job(scores: np.ndarray) -> DecodeResult:
    assert _WORKER_DECODER is not None
    return _cold_decode(_WORKER_DECODER, scores)


def _decode_features_job(features: np.ndarray) -> DecodeResult:
    assert _WORKER_DECODER is not None and _WORKER_SCORER is not None
    return _cold_decode(_WORKER_DECODER, _WORKER_SCORER.score(features))


class DecodePool:
    """Decode batches of utterances, optionally across processes.

    Args:
        am / lm: recognition graphs.
        scorer: acoustic scorer; required for :meth:`decode_utterances`.
        config: decoder configuration shared by every worker.
        parallelism: worker process count; ``1`` decodes in-process,
            and so does any count on a host that exposes a single
            visible CPU, where workers would time-slice one core.
            Results are identical either way.
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
        self._decoder: OnTheFlyDecoder | None = None
        self._shm = None
        if scorer is not None:
            if parallelism == 1:
                # Decode the deployable artifact: the tables a worker
                # attaches, weights rounded to the persisted 32-bit
                # format, over the caller's own graphs.
                tables = DecoderTables.from_graphs(am, lm, np.float32)
                self._decoder = OnTheFlyDecoder(
                    am, lm, self.config, tables=tables
                )
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
        else:
            self._decoder = OnTheFlyDecoder(am, lm, self.config)

    @property
    def strategy(self) -> str:
        """How this pool decodes: ``serial`` or ``pool[N]``."""
        if self._executor is not None:
            return f"pool[{self.parallelism}]"
        return "serial"

    def _chunksize(self, num_jobs: int) -> int:
        """Batch jobs per pickle: a couple of chunks per worker."""
        return max(1, num_jobs // (self.parallelism * 2))

    # -- batch entry points -------------------------------------------------

    def decode_scores(self, scores: list[np.ndarray]) -> list[DecodeResult]:
        """Decode pre-computed score matrices; results in input order."""
        if self._executor is None:
            assert self._decoder is not None
            return [_cold_decode(self._decoder, s) for s in scores]
        return list(
            self._executor.map(
                _decode_scores_job, scores, chunksize=self._chunksize(len(scores))
            )
        )

    def decode_utterances(self, utterances) -> list[DecodeResult]:
        """Score and decode utterances; results in input order."""
        if self._scorer is None:
            raise ValueError("DecodePool built without a scorer")
        if self._executor is None:
            assert self._decoder is not None
            return [
                _cold_decode(self._decoder, self._scorer.score(u.features))
                for u in utterances
            ]
        return list(
            self._executor.map(
                _decode_features_job,
                [u.features for u in utterances],
                chunksize=self._chunksize(len(utterances)),
            )
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
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
