"""Stream decode engines: where a session's Viterbi state lives.

The scheduler (``repro.serve.scheduler``) is transport- and
process-agnostic; an *engine* owns the actual
:class:`~repro.asr.streaming.StreamingSession` objects and executes
their frame batches.  Two implementations:

* :class:`InlineEngine` — one in-process decoder shared by every
  session.  Sessions interleave on it freely: the decoder's transient
  caches (Offset Lookup Table, LM expansion cache) only change how
  much work is re-spent, never results, so concurrent sessions decode
  to exactly what a sequential pass would.
* :class:`ProcessEngine` — ``workers`` dedicated worker processes,
  each owning a decoder plus the sessions *pinned* to it.  A streaming
  session is stateful (its token table must stay where its last frame
  was decoded), which is why this is not
  :class:`~repro.asr.parallel.DecodePool`: the pool's map-style
  executor hands jobs to whichever worker is free, the engine pins
  each session to one worker for its lifetime.  The recognizer ships
  to workers as a named shared-memory segment
  (:func:`repro.shm.pack_recognizer`): every worker *attaches* the
  parent-packed segment and decodes from zero-copy read-only views,
  so N workers pay for the graphs/LM/scorer once — unlike fork
  copy-on-write inheritance, whose refcount churn quietly privatizes
  the inherited pages.

Engines are synchronous.  The scheduler calls an engine that declares
``in_process`` on the event loop's own thread (its calls hold the GIL
throughout, so a thread would overlap nothing) and any other from
dispatch threads sized to ``engine.workers``.  Every method is safe to
call concurrently for *different* sessions; per-worker locks serialize
the underlying pipes.

Fault tolerance (:class:`ProcessEngine` only — a crashed in-process
engine is a crashed server):

* every pipe request carries a deadline; a worker that hangs past it
  or whose pipe breaks surfaces as a typed
  :class:`WorkerTimeout`/:class:`WorkerDied` instead of a blocked
  dispatch thread;
* a supervisor thread (plus every failed request) detects dead
  workers, respawns them against the same shared segment as the
  initial spawn — a respawn re-attaches the existing segment, so its
  cost is O(per-session state), not O(recognizer) — and migrates the
  dead worker's sessions onto live
  ones by restoring each from its rolling
  :class:`~repro.asr.streaming.SessionSnapshot` checkpoint and
  replaying the acknowledged pushes since — continuations are
  bit-identical to an uninterrupted decode (the streaming layer's
  snapshot contract);
* exactly-once framing: a push enters a session's replay buffer only
  after the worker acknowledged it, so a push that died in flight is
  absent from the replayed prefix and simply retried on the new
  worker.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from time import perf_counter

import numpy as np

from repro.am.graph import AmGraph
from repro.am.scorer import AcousticScorer
from repro.asr.streaming import (
    PartialHypothesis,
    SessionSnapshot,
    StreamingSession,
)
from repro.core.decoder import DecodeResult, DecoderConfig, OnTheFlyDecoder
from repro.lm.graph import LmGraph
from repro.serve.metrics import MetricsRegistry
from repro.shm import attach_recognizer, pack_recognizer, process_memory


class EngineError(RuntimeError):
    """A session operation the engine could not perform."""


class TransientEngineError(EngineError):
    """An engine failure worth retrying (infrastructure, not input)."""


class WorkerDied(TransientEngineError):
    """A worker process exited or its pipe broke mid-request."""


class WorkerTimeout(TransientEngineError):
    """A worker failed to reply within the request deadline.

    The pipe is desynchronized after a timeout (a late reply would be
    mistaken for the next request's), so the worker is marked dead and
    the supervisor replaces it.
    """


class InlineEngine:
    """All sessions on one in-process decoder (``workers == 1``).

    With ``fuse`` on (the default) the scheduler may advance up to
    ``max_fused_sessions`` sessions per dispatch through
    :meth:`push_many` — one engine call per scheduler cycle instead of
    one engine round-trip per session
    (:func:`repro.asr.streaming.push_sessions`), each session still
    stepped on its own.  Every session then gets its own forked lookup
    (``decoder.lookup.fork()``), so its lookup counters are a solo
    cold decode's.  Per-session results, partials and stats are
    bit-identical to unfused serving.
    """

    #: Calls are pure in-process Python: nothing for a dispatch thread
    #: to overlap, so the scheduler runs them on the event loop.
    in_process = True

    def __init__(
        self,
        am: AmGraph | None = None,
        lm: LmGraph | None = None,
        config: DecoderConfig | None = None,
        fuse: bool = True,
        max_fused_sessions: int = 8,
        decoder: OnTheFlyDecoder | None = None,
    ) -> None:
        if max_fused_sessions < 1:
            raise ValueError("max_fused_sessions must be >= 1")
        if decoder is None:
            if am is None or lm is None:
                raise ValueError("need either a decoder or am+lm graphs")
            # A prebuilt decoder is how shard processes serve from an
            # attached shared-memory recognizer (tables-backed); the
            # am/lm path builds a private one.
            decoder = OnTheFlyDecoder(am, lm, config)
        self.workers = 1
        self.fuse = fuse
        #: Scheduler dispatch-width hint; 1 disables fused selection.
        self.max_fused_sessions = max_fused_sessions if fuse else 1
        self._decoder = decoder
        self._sessions: dict[str, StreamingSession] = {}

    def start(self, session_id: str) -> None:
        if session_id in self._sessions:
            raise EngineError(f"session {session_id!r} already started")
        lookup = self._decoder.lookup.fork() if self.fuse else None
        self._sessions[session_id] = StreamingSession(
            self._decoder, lookup=lookup
        )

    def _session(self, session_id: str) -> StreamingSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise EngineError(f"unknown session {session_id!r}")
        return session

    def push(self, session_id: str, scores: np.ndarray) -> PartialHypothesis:
        return self._session(session_id).push(scores)

    def push_many(
        self, items: list[tuple[str, np.ndarray]]
    ) -> list[PartialHypothesis]:
        """Advance several sessions in one engine call.

        Raises before any session advances (unknown ids, bad shapes),
        so the caller may replay items one by one to attribute a
        failure.
        """
        from repro.asr.streaming import push_sessions

        sessions = [self._session(session_id) for session_id, _ in items]
        return push_sessions(sessions, [scores for _, scores in items])

    def finish(self, session_id: str) -> DecodeResult:
        session = self._session(session_id)
        try:
            return session.finish()
        finally:
            del self._sessions[session_id]

    def cancel(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def export_session(self, session_id: str) -> SessionSnapshot:
        """Snapshot a session and release it (shard handoff, move-out)."""
        session = self._session(session_id)
        snapshot = session.snapshot()
        del self._sessions[session_id]
        return snapshot

    def adopt_session(
        self, session_id: str, snapshot: SessionSnapshot
    ) -> None:
        """Rebuild a migrated session from its snapshot (move-in)."""
        if session_id in self._sessions:
            raise EngineError(f"session {session_id!r} already started")
        lookup = self._decoder.lookup if not self.fuse else None
        self._sessions[session_id] = StreamingSession.restore(
            self._decoder, snapshot, lookup=lookup
        )

    def active_sessions(self) -> int:
        return len(self._sessions)

    def close(self) -> None:
        self._sessions.clear()


# -- process engine ---------------------------------------------------------


def _worker_main(
    conn, config: DecoderConfig, segment: str, chaos=None
):
    """Worker loop: own one decoder and the sessions pinned here.

    The recognizer arrives as the *name* of a shared-memory segment the
    parent packed: the worker attaches it and decodes from zero-copy
    read-only views, so respawning a worker never re-ships or rebuilds
    the recognizer — only per-session state is rebuilt (by restore).

    ``chaos`` is an optional :class:`repro.serve.chaos.WorkerChaos`
    fault plan: counted in pipe pushes, it can crash the process,
    hang, swallow a reply, or raise an injected decoder error — the
    deterministic stand-ins for the infrastructure faults the
    supervisor exists to absorb.
    """
    attached = attach_recognizer(segment)
    decoder = OnTheFlyDecoder(
        attached.am, attached.lm, config, tables=attached.tables
    )
    sessions: dict[str, StreamingSession] = {}
    pushes = 0
    while True:
        try:
            command, session_id, payload = conn.recv()
        except EOFError:
            break
        try:
            if command == "stop":
                conn.send(("ok", None))
                break
            if command == "start":
                if session_id in sessions:
                    raise EngineError(
                        f"session {session_id!r} already started"
                    )
                # Each session forks the worker decoder's lookup so its
                # cache evolution (and therefore its snapshot) is
                # solo-identical, independent of neighbours.
                sessions[session_id] = StreamingSession(
                    decoder, lookup=decoder.lookup.fork()
                )
                conn.send(("ok", None))
            elif command == "push":
                pushes += 1
                if chaos is not None:
                    if chaos.error_at_push == pushes:
                        raise RuntimeError(chaos.error_message)
                    if chaos.die_at_push == pushes:
                        os._exit(1)
                    if chaos.hang_at_push == pushes:
                        time.sleep(chaos.hang_seconds)
                partial = sessions[session_id].push(payload)
                if chaos is not None and chaos.drop_reply_at_push == pushes:
                    continue  # decoded, but the parent never hears
                conn.send(("ok", partial))
            elif command == "snapshot":
                conn.send(("ok", sessions[session_id].snapshot()))
            elif command == "restore":
                if session_id in sessions:
                    raise EngineError(
                        f"session {session_id!r} already started"
                    )
                snapshot, replay = payload
                if snapshot is None:
                    session = StreamingSession(
                        decoder, lookup=decoder.lookup.fork()
                    )
                else:
                    session = StreamingSession.restore(decoder, snapshot)
                for batch in replay:
                    session.push(batch)
                sessions[session_id] = session
                conn.send(("ok", None))
            elif command == "finish":
                result = sessions.pop(session_id).finish()
                conn.send(("ok", result))
            elif command == "cancel":
                sessions.pop(session_id, None)
                conn.send(("ok", None))
            elif command == "meminfo":
                info = process_memory(segment=segment)
                info["sessions"] = len(sessions)
                conn.send(("ok", info))
            else:
                raise EngineError(f"unknown command {command!r}")
        except KeyError:
            conn.send(("err", f"unknown session {session_id!r}"))
        except Exception as exc:  # surfaced to the caller, loop survives
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
    conn.close()
    attached.close()


class _Worker:
    """Parent-side handle: pipe + lock + pinned-session count."""

    def __init__(
        self, ctx, config, segment: str, index: int, chaos=None
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.lock = threading.Lock()
        self.sessions = 0
        self.index = index
        #: Set the moment a request fails structurally (EOF, broken
        #: pipe, deadline): the pipe can no longer be trusted, so every
        #: later request short-circuits until the supervisor replaces
        #: this worker.
        self.dead = False
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, segment, chaos),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def request(
        self,
        command: str,
        session_id: str | None,
        payload=None,
        timeout: float | None = None,
    ):
        with self.lock:
            if self.dead:
                raise WorkerDied(f"worker {self.index} is dead")
            try:
                self.conn.send((command, session_id, payload))
                if timeout is not None and not self.conn.poll(timeout):
                    self.dead = True
                    raise WorkerTimeout(
                        f"worker {self.index} gave no reply to "
                        f"{command!r} within {timeout:g}s"
                    )
                status, value = self.conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
                self.dead = True
                raise WorkerDied(
                    f"worker {self.index} died during {command!r}: "
                    f"{type(exc).__name__}"
                ) from exc
            except OSError as exc:
                self.dead = True
                raise WorkerDied(
                    f"worker {self.index} pipe failed during "
                    f"{command!r}: {exc}"
                ) from exc
        if status != "ok":
            raise EngineError(value)
        return value

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Kill the process, then close the pipe.

        Kill-first matters: a dispatch thread blocked in ``recv`` holds
        the worker lock, and only the process dying (EOF) releases it —
        closing the pipe first would have to wait on that same lock.
        """
        self.dead = True
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.process.join(timeout=join_timeout)
        with self.lock:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class _SessionRecord:
    """Parent-side recovery state for one pinned session.

    ``lock`` serializes this session's engine operations against the
    supervisor: a push's acknowledgement and its entry into ``replay``
    are atomic under it, so a migration never observes a push the
    client saw acknowledged but the replay buffer missed.
    """

    __slots__ = (
        "worker",
        "lock",
        "started",
        "checkpoint",
        "replay",
        "frames_since_checkpoint",
    )

    def __init__(self, worker: _Worker) -> None:
        self.worker = worker
        self.lock = threading.Lock()
        self.started = False
        self.checkpoint = None
        self.replay: list[np.ndarray] = []
        self.frames_since_checkpoint = 0


class ProcessEngine:
    """Sessions pinned across dedicated, supervised worker processes.

    The recognizer ships to workers as one named shared-memory segment
    (:func:`repro.shm.pack_recognizer`, bundle-quantized): every worker
    attaches the segment and decodes the same float32-narrowed graphs
    from zero-copy views, so a session's transcript is independent of
    which worker it landed on — the same property that makes crash
    migration invisible: a session restored from its checkpoint on
    another worker continues bit-identically.  ``scorer`` is required
    because workers score frames locally from the shared parameters.

    ``request_timeout`` bounds every pipe request (no dispatch thread
    blocks longer); ``checkpoint_interval`` is the rolling-checkpoint
    cadence in decoded frames (pushes since the last checkpoint are
    buffered for replay, so smaller intervals trade snapshot traffic
    for shorter replays on migration).  ``chaos`` arms one worker with
    a :class:`repro.serve.chaos.WorkerChaos` fault plan (tests only).
    """

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        scorer: AcousticScorer,
        config: DecoderConfig | None = None,
        workers: int = 2,
        request_timeout: float | None = 30.0,
        checkpoint_interval: int | None = 16,
        metrics: MetricsRegistry | None = None,
        chaos=None,
        supervisor_poll_seconds: float = 0.2,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.workers = workers
        self.config = config or DecoderConfig()
        self.request_timeout = request_timeout
        self.checkpoint_interval = checkpoint_interval
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Pre-register the recovery counters: ``status`` shows them at
        # 0 on a healthy engine rather than omitting the names.
        for name in (
            "worker_restarts",
            "sessions_migrated",
            "sessions_lost",
            "checkpoints_taken",
        ):
            self.metrics.counter(name)
        self._chaos = chaos
        # Pack once, attach everywhere: every worker (initial spawn
        # and every respawn) maps this segment and decodes zero-copy
        # views of it — the recognizer is never pickled to, rebuilt
        # in, or COW-inherited by a worker.
        self._shm = pack_recognizer(am, lm, scorer, quantize=True)
        if "fork" in multiprocessing.get_all_start_methods():
            # Fork stays the *launch* vehicle where available (no
            # fresh-interpreter import tax on respawn); the recognizer
            # still arrives via the segment, and pages a child never
            # writes stay physically shared.
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - spawn-only platforms
            self._ctx = multiprocessing.get_context("spawn")
        self._workers = [self._spawn_worker(i) for i in range(workers)]
        self._sessions: dict[str, _SessionRecord] = {}
        self._placement_lock = threading.Lock()
        self._recovery_lock = threading.Lock()
        self._closing = threading.Event()
        self._supervisor: threading.Thread | None = threading.Thread(
            target=self._supervise,
            args=(supervisor_poll_seconds,),
            name="serve-engine-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    def _spawn_worker(self, index: int, respawn: bool = False) -> _Worker:
        chaos = self._chaos
        if (
            respawn
            or chaos is None
            or getattr(chaos, "worker_index", 0) != index
        ):
            # Fault plans arm the *original* occupant of a slot only;
            # its replacement comes up clean, or chaos tests would kill
            # every respawn forever.
            chaos = None
        return _Worker(
            self._ctx,
            self.config,
            self._shm.segment_name,
            index,
            chaos,
        )

    # -- supervision --------------------------------------------------------

    def _supervise(self, poll_seconds: float) -> None:
        """Detect dead workers even when no request is in flight."""
        while not self._closing.wait(poll_seconds):
            for worker in list(self._workers):
                if worker.dead or not worker.process.is_alive():
                    try:
                        self._recover_worker(worker)
                    except Exception:  # pragma: no cover - keep supervising
                        pass

    def _recover_worker(self, dead: _Worker) -> None:
        """Replace a dead worker and migrate its sessions.

        Idempotent and thread-safe: every dispatch thread that trips
        over the same dead worker funnels here, the first one does the
        work, the rest see the worker already replaced and return.
        """
        with self._recovery_lock:
            if dead not in self._workers:
                return  # already recovered by another thread
            started = perf_counter()
            dead.shutdown()
            replacement = self._spawn_worker(dead.index, respawn=True)
            self._workers[self._workers.index(dead)] = replacement
            self.metrics.counter("worker_restarts").inc()
            with self._placement_lock:
                victims = [
                    (sid, record)
                    for sid, record in self._sessions.items()
                    if record.worker is dead
                ]
            for session_id, record in victims:
                with record.lock:
                    if record.worker is not dead:
                        continue  # pragma: no cover - raced a migration
                    with self._placement_lock:
                        target = min(
                            self._workers, key=lambda w: w.sessions
                        )
                    try:
                        if record.started:
                            target.request(
                                "restore",
                                session_id,
                                (record.checkpoint, list(record.replay)),
                                timeout=self.request_timeout,
                            )
                    except Exception:
                        # The session cannot be rebuilt (restore failed
                        # or the target died too): drop it — its next
                        # operation surfaces a session-lost error.
                        with self._placement_lock:
                            self._sessions.pop(session_id, None)
                        self.metrics.counter("sessions_lost").inc()
                        continue
                    with self._placement_lock:
                        target.sessions += 1
                        record.worker = target
                    if record.started:
                        self.metrics.counter("sessions_migrated").inc()
            self.metrics.histogram("migration_seconds").observe(
                perf_counter() - started
            )

    # -- request plumbing ---------------------------------------------------

    def _record(self, session_id: str) -> _SessionRecord:
        with self._placement_lock:
            record = self._sessions.get(session_id)
        if record is None:
            raise EngineError(f"unknown session {session_id!r}")
        return record

    def _call(
        self, record: _SessionRecord, session_id: str, command: str, payload
    ):
        """One session operation, retried across worker recoveries.

        Success-side bookkeeping (replay buffer, started flag) happens
        under the record lock, atomically with the acknowledgement.
        """
        last_error: TransientEngineError | None = None
        for _ in range(self.workers + 1):
            with record.lock:
                worker = record.worker
                try:
                    value = worker.request(
                        command,
                        session_id,
                        payload,
                        timeout=self.request_timeout,
                    )
                except TransientEngineError as exc:
                    last_error = exc
                else:
                    if command == "start":
                        record.started = True
                    elif command == "push":
                        record.replay.append(payload)
                        record.frames_since_checkpoint += int(
                            payload.shape[0]
                        )
                    return value
            self._recover_worker(worker)
            with self._placement_lock:
                if session_id not in self._sessions:
                    raise EngineError(
                        f"session {session_id!r} was lost when its "
                        f"worker died"
                    )
        assert last_error is not None
        raise last_error

    def _maybe_checkpoint(
        self, record: _SessionRecord, session_id: str
    ) -> None:
        interval = self.checkpoint_interval
        if interval is None:
            return
        failed_worker: _Worker | None = None
        with record.lock:
            if not record.started or record.frames_since_checkpoint < interval:
                return
            worker = record.worker
            try:
                snapshot = worker.request(
                    "snapshot", session_id, timeout=self.request_timeout
                )
            except TransientEngineError:
                failed_worker = worker  # recover below, retry next push
            except EngineError:
                return  # session vanished worker-side; nothing to save
            else:
                record.checkpoint = snapshot
                record.replay = []
                record.frames_since_checkpoint = 0
                self.metrics.counter("checkpoints_taken").inc()
                return
        try:
            self._recover_worker(failed_worker)
        except Exception:  # pragma: no cover - supervisor retries
            pass

    # -- engine interface ---------------------------------------------------

    def start(self, session_id: str) -> None:
        with self._placement_lock:
            if session_id in self._sessions:
                raise EngineError(f"session {session_id!r} already started")
            # Least-loaded placement; ties resolve to the first worker,
            # so a quiet engine degenerates to round-robin as sessions
            # arrive and retire.
            worker = min(self._workers, key=lambda w: w.sessions)
            worker.sessions += 1
            record = _SessionRecord(worker)
            self._sessions[session_id] = record
        try:
            self._call(record, session_id, "start", None)
        except Exception:
            # Any failure — typed engine errors *and* raw pipe OSErrors
            # — must unwind the placement, or the slot leaks forever.
            self._forget(session_id)
            raise

    def _forget(self, session_id: str) -> None:
        with self._placement_lock:
            record = self._sessions.pop(session_id, None)
            if record is not None:
                record.worker.sessions -= 1

    def push(self, session_id: str, scores: np.ndarray) -> PartialHypothesis:
        record = self._record(session_id)
        partial = self._call(record, session_id, "push", scores)
        self._maybe_checkpoint(record, session_id)
        return partial

    def finish(self, session_id: str) -> DecodeResult:
        record = self._record(session_id)
        try:
            return self._call(record, session_id, "finish", None)
        finally:
            self._forget(session_id)

    def cancel(self, session_id: str) -> None:
        with self._placement_lock:
            record = self._sessions.get(session_id)
        if record is None:
            return
        try:
            with record.lock:
                record.worker.request(
                    "cancel", session_id, timeout=self.request_timeout
                )
        except TransientEngineError:
            # The worker is gone and the session with it; kick recovery
            # for its neighbours, but never surface pipe errors from a
            # cancel — the caller is abandoning the session either way.
            worker = record.worker
            self._forget(session_id)
            try:
                self._recover_worker(worker)
            except Exception:  # pragma: no cover - supervisor retries
                pass
            return
        except EngineError:
            pass
        self._forget(session_id)

    def active_sessions(self) -> int:
        with self._placement_lock:
            return len(self._sessions)

    def export_session(self, session_id: str) -> SessionSnapshot:
        """Snapshot a session's exact current state and release it.

        Unlike the rolling checkpoint, this is taken *now* (no replay
        suffix), so the receiving engine restores it as-is — the shard
        handoff path.
        """
        record = self._record(session_id)
        with record.lock:
            snapshot = record.worker.request(
                "snapshot", session_id, timeout=self.request_timeout
            )
            record.worker.request(
                "cancel", session_id, timeout=self.request_timeout
            )
        self._forget(session_id)
        return snapshot

    def adopt_session(
        self, session_id: str, snapshot: SessionSnapshot
    ) -> None:
        """Rebuild a migrated session on the least-loaded worker."""
        with self._placement_lock:
            if session_id in self._sessions:
                raise EngineError(f"session {session_id!r} already started")
            worker = min(self._workers, key=lambda w: w.sessions)
            worker.sessions += 1
            record = _SessionRecord(worker)
            self._sessions[session_id] = record
        try:
            with record.lock:
                worker.request(
                    "restore",
                    session_id,
                    (snapshot, []),
                    timeout=self.request_timeout,
                )
                record.started = True
                record.checkpoint = snapshot
        except Exception:
            self._forget(session_id)
            raise

    def memory_report(self) -> dict:
        """Shared-segment size plus each live worker's RSS/USS.

        The interesting comparison: ``shared_nbytes`` is paid once for
        the whole engine; each worker's ``uss_bytes`` (private pages)
        should stay a small fraction of it — the segment's pages are
        mapped, not copied, into every worker.
        """
        report = {
            "segment": self._shm.segment_name,
            "shared_nbytes": self._shm.nbytes,
            "workers": [],
        }
        for worker in list(self._workers):
            try:
                info = worker.request(
                    "meminfo", None, timeout=self.request_timeout
                )
            except EngineError:  # dead/timed-out worker: skip it
                continue
            info["index"] = worker.index
            report["workers"].append(info)
        return report

    def close(self) -> None:
        self._closing.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
            self._supervisor = None
        for worker in self._workers:
            if worker.dead or not worker.process.is_alive():
                worker.shutdown()
                continue
            try:
                worker.request(
                    "stop", None, timeout=self.request_timeout
                )
            except EngineError:  # covers WorkerDied/WorkerTimeout too
                pass
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
        # Workers are gone (or at least told to stop); destroy the
        # segment.  unlink is idempotent, so repeated close() is safe.
        self._shm.unlink()
