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
produced: the connection that started the session sets one that
buffers the encoded message for its one socket write per loop turn,
before the session's first message, so a reply costs no task wake-up.
A session whose sink is cleared (its client went away) drops its
messages.

The queues hold score matrices only.  A ``features`` session's batch
is scored in :meth:`Scheduler.push`, after its admission checks, on
the loop's thread; a scoring failure fails that session alone.

A cycle is one plain call: select, decode, emit.  Nothing in it
suspends, so the loop task awaits only to park when no session has a
turn and to yield once per cycle (socket reads interleave there).
Idle sessions are swept when the loop parks and, under load, once
every ``IDLE_POLL_SECONDS`` of busy cycles.

A sharded deployment rebalances with :meth:`Scheduler.move`: the
session is dropped here and its client told where to re-open it.

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

#: How often the loop sweeps idle sessions: the longest it parks when
#: no work is queued, and the shortest gap between sweeps when busy.
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
    #: ``features`` batches are scored as they are pushed.
    payload: str = protocol.PAYLOAD_SCORES
    queue: deque = field(default_factory=deque)
    finish_requested: bool = False
    closed: bool = False
    admitted_at: float = 0.0
    last_activity: float = 0.0
    frames_decoded: int = 0
    saw_first_partial: bool = False
    #: Where this session's messages go as they are emitted; ``None``
    #: drops them.
    sink: Callable[[dict], None] | None = None
    #: Called once as the session retires (its connection forgets it).
    on_retire: Callable[[], object] | None = None


class Scheduler:
    """Multiplex admitted sessions' frame batches over one engine."""

    def __init__(
        self,
        engine,
        config: SchedulerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        session_id_prefix: str = "s",
        scorer=None,
    ) -> None:
        self.engine = engine
        #: The acoustic model ``features`` batches are scored with;
        #: ``None`` serves ``scores`` sessions only.
        self.scorer = scorer
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
        #: Id prefix, distinct per shard in a sharded deployment so
        #: session ids stay unique cluster-wide.
        self._id_prefix = session_id_prefix
        self._ids = iter(range(1, 1 << 62))

    # The per-push instruments, bound on first use: a registry lookup is
    # a dict probe per call, and a fresh server's ``status`` must not
    # list them before the first push.

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

    @cached_property
    def _scoring_instruments(self):
        metrics = self.metrics
        return (
            metrics.counter("feature_batches_scored"),
            metrics.histogram("scoring_wait_seconds"),
        )

    # -- client-facing operations (called from the event loop) --------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    @property
    def draining(self) -> bool:
        return self._stopping

    def admit(self, payload: str = protocol.PAYLOAD_SCORES) -> Session:
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

    def push(self, session: Session, batch: np.ndarray) -> None:
        """Queue one frame batch or raise :class:`Busy` — never buffer
        beyond the session's bound.

        ``batch`` is a score matrix or, on a ``features`` session, a
        feature matrix, scored here once it is admitted (a ``busy``
        push is never scored).  A zero-frame keep-alive queues as a
        ``(0, 0)`` matrix without reaching the scorer.  A scoring
        failure fails the session; nothing is queued.
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
        if session.payload == protocol.PAYLOAD_FEATURES:
            if batch.shape[0] == 0:
                batch = np.zeros((0, 0))
            else:
                scored, waited = self._scoring_instruments
                started = perf_counter()
                try:
                    batch = np.asarray(
                        self.scorer.score(batch), dtype=np.float64
                    )
                except Exception as exc:
                    self.fail(session, f"acoustic scoring failed: {exc}")
                    return
                scored.inc()
                waited.observe(perf_counter() - started)
        session.queue.append(batch)
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

    def cancel(self, session: Session) -> None:
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

    def move(self, host: str, port: int, shard: int) -> str | None:
        """Drop one session and tell its client to re-open it on the
        shard at ``host:port``; returns its id, or ``None`` if no
        session may move.

        The victim is the lexicographically first session not
        finishing (one about to retire anyway), so a rebalance is
        deterministic.  It runs between cycles, so no session is
        mid-decode.  Nothing of it travels: its client still holds
        every batch it sent and replays them there.
        """
        movable = [
            session_id
            for session_id, session in self._sessions.items()
            if not session.finish_requested
        ]
        if not movable:
            return None
        session = self._sessions[min(movable)]
        self.engine.cancel(session.session_id)
        self._emit(
            session,
            protocol.moved_message(session.session_id, host, port, shard),
        )
        self._retire(session, "sessions_moved")
        return session.session_id

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
        swept = perf_counter()
        while True:
            selected = self._select()
            if not selected:
                if self._stopping and not self._sessions:
                    break
                await self._park()
                swept = perf_counter()
                self._evict_idle(swept)
                continue
            self.metrics.counter("decode_cycles").inc()
            decodable = [s for s in selected if s.queue]
            if len(decodable) >= 2:
                # The selection is at most the fuse width: one engine
                # call advances every session with a queued batch.
                selected = [s for s in selected if not s.queue]
                self._serve_fused(decodable)
            for session in selected:
                self._serve_one(session)
            # A session abandoned mid-stream must time out even while
            # others keep every cycle busy (the loop then never parks).
            now = perf_counter()
            if now - swept >= IDLE_POLL_SECONDS:
                swept = now
                self._evict_idle(now)
            # The cycle's one yield: socket reads, the replies' flush
            # and control requests run here.
            await asyncio.sleep(0)

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
        if session.closed:
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

    def _serve_one(self, session: Session) -> None:
        if session.queue:
            self._decode_batch(session)
        elif session.finish_requested:
            self._finish(session)
        session.last_activity = perf_counter()

    def _decode_batch(self, session: Session) -> None:
        scores = session.queue.popleft()
        self._queue_changed(-1)
        started = perf_counter()
        try:
            partial = self.engine.push(session.session_id, scores)
        except Exception as exc:
            self.fail(session, f"decode failed: {exc}")
            return
        elapsed = perf_counter() - started
        self._kernel_calls.inc()
        self._record_decode(session, scores, partial, elapsed)

    def _serve_fused(self, sessions: list[Session]) -> None:
        """One engine dispatch advancing every session a batch
        (:meth:`~repro.serve.engine.InlineEngine.push_many`)."""
        batches = [session.queue.popleft() for session in sessions]
        self._queue_changed(-len(sessions))
        items = [
            (session.session_id, scores)
            for session, scores in zip(sessions, batches)
        ]
        started = perf_counter()
        try:
            partials = self.engine.push_many(items)
        except Exception:
            # push_many raises before any session advances, so the
            # batches can be replayed one at a time — attributing the
            # failure to the offending session and letting the others
            # proceed.
            for session, scores in zip(sessions, batches):
                session.queue.appendleft(scores)
            self._queue_changed(len(sessions))
            for session in sessions:
                self._decode_batch(session)
        else:
            elapsed = perf_counter() - started
            self._kernel_calls.inc()
            fused_sessions, fused_width = self._fused_instruments
            fused_sessions.set(len(sessions))
            fused_width.observe(len(sessions))
            for session, scores, partial in zip(
                sessions, batches, partials
            ):
                self._record_decode(session, scores, partial, elapsed)
        now = perf_counter()
        for session in sessions:
            session.last_activity = now

    def _record_decode(
        self,
        session: Session,
        scores: np.ndarray,
        partial,
        elapsed: float,
    ) -> None:
        frames = scores.shape[0]
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

    def _finish(self, session: Session) -> None:
        try:
            result = self.engine.finish(session.session_id)
        except Exception as exc:
            self.fail(session, f"finish failed: {exc}", cancel=False)
            return
        self.metrics.histogram("session_seconds").observe(
            perf_counter() - session.admitted_at
        )
        self._emit(
            session, protocol.final_message(session.session_id, result)
        )
        self._retire(session, "sessions_completed")

    def fail(
        self, session: Session, error: str, cancel: bool = True
    ) -> None:
        """Retire a session with an ``error`` naming it; the other
        sessions carry on."""
        if cancel:
            try:
                self.engine.cancel(session.session_id)
            except Exception:  # the session is gone either way
                pass
        self._emit(
            session, protocol.error_message(error, session.session_id)
        )
        self._retire(session, "sessions_failed")

    def _evict_idle(self, now: float) -> None:
        timeout = self.config.idle_timeout_seconds
        for session in list(self._sessions.values()):
            if session.queue or session.finish_requested:
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
        if sink is not None:
            sink(message)

    def _retire(self, session: Session, counter: str) -> None:
        session.closed = True
        if session.on_retire is not None:
            session.on_retire()
        # Whatever a retiring session still holds leaves the count with
        # it (a failed, timed-out or moved session retires mid-queue).
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
