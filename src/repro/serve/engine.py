"""The stream decode engine: where a session's Viterbi state lives.

The scheduler (``repro.serve.scheduler``) is transport-agnostic; the
engine owns the actual :class:`~repro.asr.streaming.StreamingSession`
objects and executes their frame batches.  :class:`InlineEngine` is
one in-process decoder shared by every session.  Sessions interleave
on it freely: each owns its search state and the decoder keeps none
between frames, so concurrent sessions decode to exactly what a
sequential pass would.

The engine is synchronous and its calls run on the event loop's own
thread: they are Python that holds the GIL from start to finish, so a
thread would overlap nothing.  Serving across processes is
:class:`~repro.serve.shard.ShardedServer`'s job: each shard process
runs one of these engines over a decoder attached to the shared
recognizer segment, and a shard that dies is respawned while its
clients replay their sessions.
"""

from __future__ import annotations

import numpy as np

from repro.am.graph import AmGraph
from repro.asr.streaming import PartialHypothesis, StreamingSession
from repro.core.decoder import DecodeResult, DecoderConfig, OnTheFlyDecoder
from repro.lm.graph import LmGraph


class EngineError(RuntimeError):
    """A session operation the engine could not perform."""


class InlineEngine:
    """All sessions on one in-process decoder.

    The scheduler may advance up to ``max_fused_sessions`` sessions per
    dispatch through :meth:`push_many` — one engine call per scheduler
    cycle instead of one engine round-trip per session
    (:func:`repro.asr.streaming.push_sessions`), each session still
    stepped on its own.  Every session gets its own forked lookup
    (``decoder.lookup.fork()``), so its lookup counters are a solo
    cold decode's.  Per-session results, partials and stats are
    bit-identical to pushing each session alone.
    """

    def __init__(
        self,
        am: AmGraph | None = None,
        lm: LmGraph | None = None,
        config: DecoderConfig | None = None,
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
        #: Scheduler dispatch-width hint; 1 disables fused selection.
        self.max_fused_sessions = max_fused_sessions
        self._decoder = decoder
        self._sessions: dict[str, StreamingSession] = {}

    def start(self, session_id: str) -> None:
        if session_id in self._sessions:
            raise EngineError(f"session {session_id!r} already started")
        self._sessions[session_id] = StreamingSession(
            self._decoder, lookup=self._decoder.lookup.fork()
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

    def close(self) -> None:
        self._sessions.clear()
