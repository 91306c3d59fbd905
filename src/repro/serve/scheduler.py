"""Session scheduling: admission control + fair micro-batching.

The scheduler is the serving layer's core loop.  It owns the bounded
session table, each session's bounded queue of undecoded frame
batches, and a round-robin dispatch policy: every cycle it picks up to
``engine.workers`` distinct sessions — resuming *after* the session
served last, so a chatty stream cannot starve a quiet one — and
decodes exactly one queued batch per picked session.  That is the
paper's Section 5.2 batched operation turned into a multi-tenant
policy: decode works in frame batches, and between batches the engine
is free to serve someone else.

Backpressure is explicit everywhere (the ROADMAP's "heavy traffic"
requirement): a full session table rejects new sessions with ``BUSY``
instead of queueing them, a full per-session frame queue rejects the
push instead of buffering unboundedly, idle sessions are evicted on a
timeout, and shutdown drains in-flight sessions to real final results
before the engine goes away.

Every outcome a client observes is one protocol message dict
(partials, finals, errors), handed to the session's *sink* where it is
produced: a TCP connection attaches one that writes the message to its
socket, so a reply costs no task wake-up.  A session without a sink —
an in-process client's, or one adopted from another shard before its
client resumes — queues its messages on ``events`` instead, and
attaching a sink first flushes that queue in order.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from repro.serve import protocol
from repro.serve.engine import TransientEngineError, WorkerTimeout
from repro.serve.metrics import MetricsRegistry
from repro.serve.scoring import ScoreHandle, batch_frames, resolve_batch

#: How often the loop re-checks timers when no work is queued.
IDLE_POLL_SECONDS = 0.05


class Busy(Exception):
    """An admission-control rejection (session table or frame queue)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class DeadlineExceeded(Exception):
    """An engine call outlived the scheduler's request deadline.

    Not retried: the executor thread may still be running, so a retry
    could advance the session twice.  The session is failed instead.
    """


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission-control, pacing and fault-tolerance knobs."""

    max_sessions: int = 8
    max_queued_batches: int = 4
    idle_timeout_seconds: float = 30.0
    #: Hard wall-clock bound on one engine call as observed from the
    #: event loop (``None`` = unbounded).  The process engine has its
    #: own per-pipe-request timeout underneath; this one also covers
    #: in-process engines, whose calls then run on a dispatch thread so
    #: the loop stays free to time them out.
    request_deadline_seconds: float | None = None
    #: Retries (beyond the first attempt) for *transient* engine
    #: errors — dead/hung workers mid-recovery, injected chaos.
    max_retries: int = 2
    #: First retry delay; doubles per attempt (exponential backoff).
    retry_backoff_seconds: float = 0.05
    #: Circuit-breaker shape: failure rate over the last
    #: ``breaker_window`` engine calls (once ``breaker_min_samples``
    #: have been seen) trips DEGRADED at ``breaker_degrade_threshold``
    #: (fused dispatch off) and OPEN at ``breaker_open_threshold``
    #: (admission refused) for ``breaker_reset_seconds``.
    breaker_window: int = 16
    breaker_min_samples: int = 4
    breaker_degrade_threshold: float = 0.5
    breaker_open_threshold: float = 0.8
    breaker_reset_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_queued_batches < 1:
            raise ValueError("max_queued_batches must be >= 1")
        if self.idle_timeout_seconds <= 0:
            raise ValueError("idle_timeout_seconds must be positive")
        if (
            self.request_deadline_seconds is not None
            and self.request_deadline_seconds <= 0
        ):
            raise ValueError("request_deadline_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_seconds <= 0:
            raise ValueError("retry_backoff_seconds must be positive")
        if self.breaker_window < 1 or self.breaker_min_samples < 1:
            raise ValueError("breaker window/min_samples must be >= 1")
        if not (
            0.0
            < self.breaker_degrade_threshold
            <= self.breaker_open_threshold
            <= 1.0
        ):
            raise ValueError(
                "need 0 < degrade_threshold <= open_threshold <= 1"
            )
        if self.breaker_reset_seconds <= 0:
            raise ValueError("breaker_reset_seconds must be positive")


#: Circuit-breaker states, in degradation order.
BREAKER_CLOSED = "closed"
BREAKER_DEGRADED = "degraded"
BREAKER_OPEN = "open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker with three states.

    CLOSED is normal service.  DEGRADED keeps serving but disables
    fused dispatch — one session per engine call localizes failures
    and halts the blast radius of a sick engine.  OPEN refuses new
    admissions (``BUSY``) for a cooldown, after which the window is
    forgiven (half-open: service resumes and re-trips on fresh
    evidence).  Existing sessions are always served; the breaker only
    sheds *new* load.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self, config: SchedulerConfig, clock=perf_counter
    ) -> None:
        self._config = config
        self._clock = clock
        self._outcomes: deque[int] = deque(maxlen=config.breaker_window)
        self._open_until: float | None = None

    def record_success(self) -> None:
        self._outcomes.append(0)

    def record_failure(self) -> None:
        self._outcomes.append(1)
        config = self._config
        if (
            len(self._outcomes) >= config.breaker_min_samples
            and self._failure_rate() >= config.breaker_open_threshold
        ):
            self._open_until = self._clock() + config.breaker_reset_seconds

    def _failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    @property
    def state(self) -> str:
        if self._open_until is not None:
            if self._clock() < self._open_until:
                return BREAKER_OPEN
            # Cooldown over: forgive the window so one old burst of
            # failures cannot re-open the breaker without new evidence.
            self._open_until = None
            self._outcomes.clear()
        if len(self._outcomes) < self._config.breaker_min_samples:
            return BREAKER_CLOSED
        if self._failure_rate() >= self._config.breaker_degrade_threshold:
            return BREAKER_DEGRADED
        return BREAKER_CLOSED


@dataclass
class Session:
    """One admitted stream and its scheduler-side state."""

    session_id: str
    #: What this session's FRAMES batches carry (START negotiation);
    #: ``features`` sessions queue :class:`~repro.serve.scoring.
    #: ScoreHandle` objects instead of score matrices.
    payload: str = protocol.PAYLOAD_SCORES
    queue: deque = field(default_factory=deque)
    events: asyncio.Queue = field(default_factory=asyncio.Queue)
    finish_requested: bool = False
    closed: bool = False
    inflight: bool = False
    admitted_at: float = 0.0
    last_activity: float = 0.0
    frames_decoded: int = 0
    saw_first_partial: bool = False
    #: Where this session's messages go as they are emitted; ``None``
    #: queues them on ``events``.
    sink: Callable[[dict], None] | None = None

    def attach(self, sink: Callable[[dict], None]) -> None:
        """Deliver every later message to ``sink``, after the ones
        queued while the session had none."""
        while not self.events.empty():
            sink(self.events.get_nowait())
        self.sink = sink

    def detach(self, sink: Callable[[dict], None]) -> None:
        """Queue messages again, unless someone else attached since."""
        if self.sink is sink:
            self.sink = None


class Scheduler:
    """Multiplex admitted sessions' frame batches over one engine."""

    def __init__(
        self,
        engine,
        config: SchedulerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        session_id_prefix: str = "s",
    ) -> None:
        self.engine = engine
        self.config = config or SchedulerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.breaker = CircuitBreaker(self.config)
        self._sessions: dict[str, Session] = {}
        self._order: list[str] = []  # round-robin ring
        self._rr_next = 0
        #: Batches queued across the live sessions — a running count,
        #: adjusted wherever a queue changes (:meth:`_queue_changed`).
        self._queued_batches = 0
        self._wake = asyncio.Event()
        self._stopping = False
        self._draining = False
        self._task: asyncio.Task | None = None
        #: Id prefix, distinct per shard in a sharded deployment so a
        #: migrated session's id stays unique cluster-wide.
        self._id_prefix = session_id_prefix
        self._ids = iter(range(1, 1 << 62))
        #: Dispatch threads, created by the first engine call that
        #: needs one (:meth:`_run_engine`); an in-process engine
        #: without a deadline never does.
        self._executor: ThreadPoolExecutor | None = None
        # Pre-register the resilience counters so a healthy server's
        # ``status`` shows them at 0 instead of omitting them —
        # dashboards should not have to wait for the first fault to
        # learn the metric names.
        for name in ("retries", "recoveries", "deadline_exceeded"):
            self.metrics.counter(name)

    # The per-push instruments, bound on first use: a registry lookup is
    # a lock and a dict probe per call, and a fresh server's ``status``
    # must not list them before the first push.

    @cached_property
    def _kernel_calls(self):
        return self.metrics.counter("kernel_calls")

    @cached_property
    def _fused_instruments(self):
        metrics = self.metrics
        return metrics.gauge("fused_sessions"), metrics.histogram("fused_width")

    @cached_property
    def _decode_instruments(self):
        metrics = self.metrics
        return (
            metrics.counter("batches_decoded"),
            metrics.counter("frames_decoded"),
            metrics.histogram("batch_decode_seconds"),
        )

    @cached_property
    def _queued_gauge(self):
        return self.metrics.gauge("queued_batches")

    # -- client-facing operations (called from the event loop) --------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    @property
    def draining(self) -> bool:
        return self._stopping

    async def admit(
        self, payload: str = protocol.PAYLOAD_SCORES
    ) -> Session:
        """Admit one session or raise :class:`Busy` — never queue."""
        if self._stopping:
            self.metrics.counter("sessions_rejected").inc()
            raise Busy("server is shutting down")
        if self.breaker.state == BREAKER_OPEN:
            self.metrics.counter("sessions_rejected").inc()
            raise Busy("circuit open: engine is unhealthy, retry shortly")
        if len(self._sessions) >= self.config.max_sessions:
            self.metrics.counter("sessions_rejected").inc()
            raise Busy(
                f"session table full ({self.config.max_sessions} active)"
            )
        session_id = f"{self._id_prefix}{next(self._ids)}"
        try:
            await self._run_engine(self.engine.start, session_id)
        except TransientEngineError as exc:
            # The engine is sick, not the request: shed it as BUSY so
            # the client retries, and feed the breaker.
            self.breaker.record_failure()
            self.metrics.counter("sessions_rejected").inc()
            raise Busy(f"engine unavailable: {exc}") from exc
        else:
            self.breaker.record_success()
        now = perf_counter()
        session = Session(
            session_id=session_id,
            payload=payload,
            admitted_at=now,
            last_activity=now,
        )
        self._sessions[session_id] = session
        self._order.append(session_id)
        self.metrics.counter("sessions_admitted").inc()
        self.metrics.gauge("active_sessions").set(len(self._sessions))
        return session

    def get(self, session_id: str) -> Session | None:
        return self._sessions.get(session_id)

    def push(
        self, session: Session, scores: np.ndarray | ScoreHandle
    ) -> None:
        """Queue one frame batch or raise :class:`Busy` — never buffer
        beyond the session's bound.

        ``scores`` is a score matrix or, for a ``features`` session, a
        :class:`~repro.serve.scoring.ScoreHandle` the dispatch will
        score; either counts against the same ``max_queued_batches``
        bound.
        """
        if session.closed:
            raise Busy("session already closed")
        if session.finish_requested:
            raise Busy("session already finishing")
        if len(session.queue) >= self.config.max_queued_batches:
            self.metrics.counter("pushes_rejected").inc()
            raise Busy(
                f"frame queue full ({self.config.max_queued_batches} batches)"
            )
        session.queue.append(scores)
        session.last_activity = perf_counter()
        self._queue_changed(1)
        self._wake.set()

    def request_finish(self, session: Session) -> None:
        """Ask for the final result once queued batches are decoded."""
        if session.closed:
            raise Busy("session already closed")
        session.finish_requested = True
        session.last_activity = perf_counter()
        self._wake.set()

    async def cancel(self, session: Session) -> None:
        """Drop a session without a final result (client went away)."""
        if session.closed:
            return
        self._queue_changed(-len(session.queue))
        session.queue.clear()
        try:
            await self._run_engine(self.engine.cancel, session.session_id)
        except Exception:
            pass
        self._emit(
            session, protocol.cancelled_message(session.session_id)
        )
        self._retire(session, "sessions_cancelled")

    # -- migration (shard handoff) ------------------------------------------

    def exportable_sessions(self) -> list[str]:
        """Sessions safe to hand off right now, hottest-ring order.

        Excludes in-flight sessions (their engine state is mid-update)
        and finishing ones (about to retire anyway).  Sorted for
        deterministic victim selection.
        """
        return sorted(
            session_id
            for session_id, session in self._sessions.items()
            if not (
                session.closed
                or session.inflight
                or session.finish_requested
            )
        )

    async def export_session(
        self, session_id: str, notice: dict | None = None
    ) -> dict:
        """Snapshot a session (engine state + queued batches) and
        retire it locally.

        ``notice`` (a ``moved`` protocol message) is emitted on the
        session's event queue before retirement so a connected client
        learns the forwarding address.  Returns the handle
        :meth:`adopt_session` consumes on the receiving scheduler.
        """
        session = self._sessions.get(session_id)
        if session is None or session.closed:
            raise Busy(f"unknown session {session_id!r}")
        if session.inflight:
            raise Busy(f"session {session_id!r} is mid-decode")
        # Queued ScoreHandles are resolved to plain matrices here: the
        # scores travel, the receiving shard needs no scorer.
        queued = [resolve_batch(batch) for batch in session.queue]
        self._queue_changed(-len(session.queue))
        session.queue.clear()
        snapshot = await self._run_engine(
            self.engine.export_session, session_id
        )
        if notice is not None:
            self._emit(session, notice)
        self._retire(session, "sessions_moved")
        return {
            "session_id": session_id,
            "payload": session.payload,
            "snapshot": snapshot,
            "queued": queued,
            "frames_decoded": session.frames_decoded,
            "finish_requested": session.finish_requested,
            "saw_first_partial": session.saw_first_partial,
        }

    async def adopt_session(self, handle: dict) -> Session:
        """Rebuild an exported session here, queued batches included."""
        if self._stopping:
            raise Busy("server is shutting down")
        session_id = handle["session_id"]
        if session_id in self._sessions:
            raise Busy(f"session {session_id!r} already lives here")
        if len(self._sessions) >= self.config.max_sessions:
            raise Busy(
                f"session table full ({self.config.max_sessions} active)"
            )
        await self._run_engine(
            self.engine.adopt_session, session_id, handle["snapshot"]
        )
        now = perf_counter()
        session = Session(
            session_id=session_id,
            payload=handle.get("payload", protocol.PAYLOAD_SCORES),
            admitted_at=now,
            last_activity=now,
        )
        session.frames_decoded = handle.get("frames_decoded", 0)
        # Keep time-to-first-partial honest: an adopted session's
        # first partial was measured on its original shard.
        session.saw_first_partial = handle.get("saw_first_partial", True)
        session.finish_requested = handle.get("finish_requested", False)
        for batch in handle.get("queued", ()):
            session.queue.append(batch)
        self._sessions[session_id] = session
        self._order.append(session_id)
        self.metrics.counter("sessions_adopted").inc()
        self.metrics.gauge("active_sessions").set(len(self._sessions))
        self._queue_changed(len(session.queue))
        self._wake.set()
        return session

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="serve-scheduler"
            )

    async def stop(self, drain: bool = True) -> None:
        """Stop the loop; with ``drain`` every admitted session gets a
        real final result first (shutdown implies finish)."""
        self._stopping = True
        self._draining = drain
        if not drain:
            for session in list(self._sessions.values()):
                await self._run_engine(self.engine.cancel, session.session_id)
                self._emit(
                    session,
                    protocol.error_message(
                        "server stopped", session.session_id
                    ),
                )
                self._retire(session, "sessions_cancelled")
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # -- scheduler loop -----------------------------------------------------

    async def _run(self) -> None:
        while True:
            selected = self._select()
            if not selected:
                if self._stopping and not self._sessions:
                    break
                await self._park()
                await self._evict_idle()
                continue
            self.metrics.counter("decode_cycles").inc()
            decodable = [s for s in selected if s.queue]
            rest = [s for s in selected if not s.queue]
            if len(decodable) >= 2 and self._fuse_width() >= 2:
                fused = decodable[: self._fuse_width()]
                rest = decodable[len(fused) :] + rest
                await asyncio.gather(
                    self._serve_fused(fused),
                    *(self._serve_one(session) for session in rest),
                )
            else:
                await asyncio.gather(
                    *(self._serve_one(session) for session in selected)
                )

    async def _park(self) -> None:
        """Sleep until woken, at most ``IDLE_POLL_SECONDS``.

        One timer handle that sets the wake event, cancelled on wake-up
        — no task per idle wait (``asyncio.wait_for`` wraps its
        argument in one every time the queues run dry).
        """
        if not self._wake.is_set():
            timer = asyncio.get_running_loop().call_later(
                IDLE_POLL_SECONDS, self._wake.set
            )
            try:
                await self._wake.wait()
            finally:
                timer.cancel()
        self._wake.clear()

    def _fuse_width(self) -> int:
        """How many sessions one engine dispatch may advance together."""
        if not hasattr(self.engine, "push_many"):
            return 1
        if self.breaker.state != BREAKER_CLOSED:
            # Degraded service: one session per engine call, so a sick
            # engine fails sessions one at a time instead of in fused
            # groups.
            return 1
        return getattr(self.engine, "max_fused_sessions", 1)

    def _has_turn(self, session: Session) -> bool:
        if session.closed or session.inflight:
            return False
        if session.queue or session.finish_requested:
            return True
        # Drain: shutdown finishes sessions whose clients never will.
        if self._stopping and self._draining:
            session.finish_requested = True
            return True
        return False

    def _select(self) -> list[Session]:
        """Up to ``max(engine.workers, fuse width)`` sessions,
        round-robin from the one after the session served last."""
        ring = self._order
        if not ring:
            return []
        selected: list[Session] = []
        size = len(ring)
        limit = max(self.engine.workers, self._fuse_width())
        start = self._rr_next % size
        for step in range(size):
            session = self._sessions.get(ring[(start + step) % size])
            if session is not None and self._has_turn(session):
                selected.append(session)
                if len(selected) >= limit:
                    self._rr_next = (start + step + 1) % size
                    break
        else:
            self._rr_next = start
        return selected

    async def _serve_one(self, session: Session) -> None:
        session.inflight = True
        try:
            if session.queue:
                await self._decode_batch(session)
            elif session.finish_requested:
                await self._finish(session)
        finally:
            session.inflight = False
            session.last_activity = perf_counter()
            self._wake.set()

    async def _call_engine(self, sessions: list[Session], fn, *args):
        """One engine call under the deadline/retry/backoff policy.

        Transient engine errors are retried ``max_retries`` times with
        exponential backoff, narrating each attempt to the affected
        sessions as a ``retrying`` event (and a ``recovered`` event
        when a retry lands).  A scheduler-deadline overrun raises
        :class:`DeadlineExceeded` and is never retried.  Every outcome
        feeds the circuit breaker.
        """
        config = self.config
        attempts = config.max_retries + 1
        for attempt in range(1, attempts + 1):
            coro = self._run_engine(fn, *args)
            try:
                if config.request_deadline_seconds is not None:
                    value = await asyncio.wait_for(
                        coro, timeout=config.request_deadline_seconds
                    )
                else:
                    value = await coro
            except (asyncio.TimeoutError, TimeoutError) as exc:
                self.metrics.counter("deadline_exceeded").inc()
                self.breaker.record_failure()
                raise DeadlineExceeded(
                    f"engine call exceeded the "
                    f"{config.request_deadline_seconds:g}s deadline"
                ) from exc
            except TransientEngineError as exc:
                self.breaker.record_failure()
                if isinstance(exc, WorkerTimeout):
                    self.metrics.counter("deadline_exceeded").inc()
                if attempt >= attempts:
                    raise
                delay = config.retry_backoff_seconds * (
                    2 ** (attempt - 1)
                )
                self.metrics.counter("retries").inc()
                for session in sessions:
                    self._emit(
                        session,
                        protocol.retrying_message(
                            session.session_id,
                            attempt=attempt,
                            max_attempts=attempts,
                            delay_seconds=delay,
                            error=str(exc),
                        ),
                    )
                await asyncio.sleep(delay)
            else:
                self.breaker.record_success()
                if attempt > 1:
                    self.metrics.counter("recoveries").inc()
                    for session in sessions:
                        self._emit(
                            session,
                            protocol.recovered_message(
                                session.session_id, attempts=attempt
                            ),
                        )
                return value
        raise AssertionError("unreachable")  # pragma: no cover

    def _resolve(self, batch) -> np.ndarray:
        """A queued batch as scores, timing the acoustic model."""
        if not isinstance(batch, ScoreHandle):
            return batch
        started = perf_counter()
        scores = batch.result()
        self.metrics.counter("feature_batches_scored").inc()
        self.metrics.histogram("scoring_wait_seconds").observe(
            perf_counter() - started
        )
        return scores

    def _push_resolved(self, session_id: str, batch):
        """Engine push with the batch resolved to scores first: a
        ``features`` batch is scored here, where the engine call runs
        (:meth:`_run_engine`)."""
        return self.engine.push(session_id, self._resolve(batch))

    def _push_many_resolved(self, items):
        """Fused engine push with every batch resolved first.

        Resolution failures raise before ``push_many`` runs, keeping
        its raise-before-advance contract: the caller replays the
        batches one at a time and the cached handle error fails only
        the offending session.
        """
        return self.engine.push_many(
            [
                (session_id, self._resolve(batch))
                for session_id, batch in items
            ]
        )

    async def _decode_batch(self, session: Session) -> None:
        scores = session.queue.popleft()
        self._queue_changed(-1)
        started = perf_counter()
        try:
            partial = await self._call_engine(
                [session], self._push_resolved, session.session_id, scores
            )
        except Exception as exc:
            await self._fail(session, f"decode failed: {exc}")
            return
        elapsed = perf_counter() - started
        self._kernel_calls.inc()
        self._record_decode(session, scores, partial, elapsed)

    async def _serve_fused(self, sessions: list[Session]) -> None:
        """One engine dispatch advancing every session a batch
        (:meth:`~repro.serve.engine.InlineEngine.push_many`)."""
        for session in sessions:
            session.inflight = True
        try:
            batches = [session.queue.popleft() for session in sessions]
            self._queue_changed(-len(sessions))
            items = [
                (session.session_id, scores)
                for session, scores in zip(sessions, batches)
            ]
            started = perf_counter()
            try:
                partials = await self._call_engine(
                    sessions, self._push_many_resolved, items
                )
            except DeadlineExceeded as exc:
                # The fused call may still be running in its executor
                # thread, so the raise-before-advance contract gives no
                # cover here: replaying could decode a batch twice.
                # Fail the whole fused group instead.
                for session in sessions:
                    await self._fail(session, f"decode failed: {exc}")
                return
            except Exception:
                # push_many raises before any session advances, so the
                # batches can be replayed one at a time — attributing
                # the failure to the offending session and letting the
                # others proceed.
                for session, scores in zip(sessions, batches):
                    session.queue.appendleft(scores)
                self._queue_changed(len(sessions))
                for session in sessions:
                    await self._decode_batch(session)
                return
            elapsed = perf_counter() - started
            self._kernel_calls.inc()
            fused_sessions, fused_width = self._fused_instruments
            fused_sessions.set(len(sessions))
            fused_width.observe(len(sessions))
            for session, scores, partial in zip(
                sessions, batches, partials
            ):
                self._record_decode(session, scores, partial, elapsed)
        finally:
            now = perf_counter()
            for session in sessions:
                session.inflight = False
                session.last_activity = now
            self._wake.set()

    def _record_decode(
        self,
        session: Session,
        scores: np.ndarray,
        partial,
        elapsed: float,
    ) -> None:
        frames = batch_frames(scores)
        session.frames_decoded += frames
        batches_decoded, frames_decoded, decode_seconds = (
            self._decode_instruments
        )
        batches_decoded.inc()
        frames_decoded.inc(frames)
        decode_seconds.observe(elapsed)
        if not session.saw_first_partial:
            session.saw_first_partial = True
            self.metrics.histogram("time_to_first_partial_seconds").observe(
                perf_counter() - session.admitted_at
            )
        self._emit(
            session, protocol.partial_message(session.session_id, partial)
        )

    async def _finish(self, session: Session) -> None:
        try:
            result = await self._call_engine(
                [session], self.engine.finish, session.session_id
            )
        except Exception as exc:
            await self._fail(session, f"finish failed: {exc}", cancel=False)
            return
        self.metrics.histogram("session_seconds").observe(
            perf_counter() - session.admitted_at
        )
        self._emit(
            session, protocol.final_message(session.session_id, result)
        )
        self._retire(session, "sessions_completed")

    async def _fail(
        self, session: Session, error: str, cancel: bool = True
    ) -> None:
        if cancel:
            try:
                await self._run_engine(
                    self.engine.cancel, session.session_id
                )
            except Exception:  # the session is gone either way
                pass
        self._emit(
            session, protocol.error_message(error, session.session_id)
        )
        self._retire(session, "sessions_failed")

    async def _evict_idle(self) -> None:
        timeout = self.config.idle_timeout_seconds
        now = perf_counter()
        for session in list(self._sessions.values()):
            if session.inflight or session.queue or session.finish_requested:
                continue
            if now - session.last_activity >= timeout:
                try:
                    await self._run_engine(
                        self.engine.cancel, session.session_id
                    )
                except Exception:
                    pass
                self._emit(
                    session,
                    protocol.error_message(
                        "idle timeout", session.session_id
                    ),
                )
                self._retire(session, "sessions_timed_out")

    # -- plumbing -----------------------------------------------------------

    async def _run_engine(self, fn, *args):
        """Run one engine call: here, or on a dispatch thread.

        An in-process engine's calls are Python that holds the GIL from
        start to finish, so a thread overlaps nothing and costs a
        wake-up, a self-pipe round trip and a GIL hand-off per
        dispatch: they run on the loop thread.  A thread is the point
        for an engine whose calls block (worker pipes — they must
        overlap across workers) and under a request deadline (the loop
        must stay free to time the call out).
        """
        if (
            getattr(self.engine, "in_process", False)
            and self.config.request_deadline_seconds is None
        ):
            return fn(*args)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.engine.workers,
                thread_name_prefix="serve-engine",
            )
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _emit(self, session: Session, message: dict) -> None:
        sink = session.sink
        if sink is None:
            session.events.put_nowait(message)
        else:
            sink(message)

    def _retire(self, session: Session, counter: str) -> None:
        session.closed = True
        # Whatever a retiring session still holds leaves the count with
        # it (a failed or timed-out session retires mid-queue).
        if self._sessions.pop(session.session_id, None) is not None:
            self._queue_changed(-len(session.queue))
        try:
            self._order.remove(session.session_id)
        except ValueError:
            pass
        self.metrics.counter(counter).inc()
        self.metrics.gauge("active_sessions").set(len(self._sessions))

    def _queue_changed(self, delta: int) -> None:
        """Account ``delta`` batches entering (or leaving) the live
        sessions' queues: the ``queued_batches`` gauge is their total,
        kept as a running count instead of re-summed per event."""
        self._queued_batches += delta
        self._queued_gauge.set(self._queued_batches)
