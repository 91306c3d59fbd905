"""Session scheduling: admission control + fair micro-batching.

The scheduler is the serving layer's core loop.  It owns the bounded
session table, each session's bounded queue of undecoded frame
batches, and a round-robin dispatch policy: every cycle it picks up
to the engine's fuse width of distinct sessions — resuming *after* the
session served last, so a chatty stream cannot starve a quiet one —
and decodes exactly one queued batch per picked session.  That is the
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

Every engine call runs on the event loop's thread, in the cycle that
needs it.  An engine call that raises fails only the sessions it was
for; a process that dies takes its sessions with it, which is what
:class:`~repro.serve.shard.ShardedServer`'s respawn and the clients'
replay (:class:`~repro.serve.client.TcpSession`) are for.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from repro.serve import protocol
from repro.serve.metrics import MetricsRegistry
from repro.serve.scoring import ScoreHandle, batch_frames, resolve_batch

#: How often the loop re-checks timers when no work is queued.
IDLE_POLL_SECONDS = 0.05


class Busy(Exception):
    """An admission-control rejection (session table or frame queue)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission-control and pacing knobs."""

    max_sessions: int = 8
    max_queued_batches: int = 4
    idle_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_queued_batches < 1:
            raise ValueError("max_queued_batches must be >= 1")
        if self.idle_timeout_seconds <= 0:
            raise ValueError("idle_timeout_seconds must be positive")


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
        if len(self._sessions) >= self.config.max_sessions:
            self.metrics.counter("sessions_rejected").inc()
            raise Busy(
                f"session table full ({self.config.max_sessions} active)"
            )
        session_id = f"{self._id_prefix}{next(self._ids)}"
        self.engine.start(session_id)
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
            self.engine.cancel(session.session_id)
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
        snapshot = self.engine.export_session(session_id)
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
        self.engine.adopt_session(session_id, handle["snapshot"])
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
                self.engine.cancel(session.session_id)
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
        return self.engine.max_fused_sessions

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
        """Up to the fuse width of sessions, round-robin from the one
        after the session served last."""
        ring = self._order
        if not ring:
            return []
        selected: list[Session] = []
        size = len(ring)
        limit = self._fuse_width()
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
        ``features`` batch is scored here, where the engine call runs."""
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
            partial = self._push_resolved(session.session_id, scores)
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
                partials = self._push_many_resolved(items)
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
            result = self.engine.finish(session.session_id)
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
                self.engine.cancel(session.session_id)
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
                    self.engine.cancel(session.session_id)
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
