"""The asynchronous transcription server.

:class:`TranscriptionServer` assembles the serving stack: the
in-process :class:`~repro.serve.engine.InlineEngine`, the
:class:`~repro.serve.scheduler.Scheduler` with its admission bounds,
a :class:`~repro.serve.metrics.MetricsRegistry`, and — when a
port is configured — a newline-delimited-JSON TCP listener speaking
:mod:`repro.serve.protocol`.

Two client surfaces, one protocol:

* the TCP transport, for real deployments and the load generator;
* :meth:`TranscriptionServer.connect_local` — an in-process client
  whose sessions speak the same message dicts straight to the
  scheduler.  Tests use it to drive genuinely concurrent sessions
  without sockets.

Shutdown is graceful by default: ``stop()`` stops admitting, drains
every in-flight session to a real final result, then closes the
engine.

The server is one thread and one process.  To serve from several
processes, :class:`~repro.serve.shard.ShardedServer` runs one of these
per shard over a shared recognizer segment.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.am.graph import AmGraph
from repro.am.scorer import AcousticScorer
from repro.core.decoder import DecoderConfig
from repro.lm.graph import LmGraph
from repro.serve import protocol
from repro.serve.engine import InlineEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import Busy, Scheduler, SchedulerConfig, Session
from repro.serve.scoring import ScoringService


class ServeError(RuntimeError):
    """A server-side error event surfaced to a client call."""


@dataclass(frozen=True)
class ServeConfig:
    """Server assembly knobs (transport + admission + fusion)."""

    host: str = "127.0.0.1"
    #: TCP port; ``None`` serves in-process clients only, ``0`` binds
    #: an ephemeral port (read it back from ``server.port``).
    port: int | None = None
    max_sessions: int = 8
    max_queued_batches: int = 4
    idle_timeout_seconds: float = 30.0
    #: Advance concurrent sessions through one engine call per
    #: scheduler cycle (bit-identical transcripts; fewer engine
    #: dispatches per decode cycle).
    fuse_sessions: bool = True
    #: Session-id prefix; a sharded deployment gives each shard (and
    #: each respawn of it) its own, so session ids stay unique
    #: cluster-wide and across a shard's lifetimes.
    session_id_prefix: str = "s"

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(
            max_sessions=self.max_sessions,
            max_queued_batches=self.max_queued_batches,
            idle_timeout_seconds=self.idle_timeout_seconds,
        )


class TranscriptionServer:
    """Serve concurrent streaming transcription sessions."""

    def __init__(
        self,
        am: AmGraph | None = None,
        lm: LmGraph | None = None,
        decoder_config: DecoderConfig | None = None,
        serve_config: ServeConfig | None = None,
        scorer: AcousticScorer | None = None,
        engine=None,
    ) -> None:
        self.config = serve_config or ServeConfig()
        self.metrics = MetricsRegistry()
        if engine is not None:
            # Prebuilt engine (shard processes hand in an InlineEngine
            # over a decoder attached to shared memory).
            if am is not None or lm is not None or scorer is not None:
                raise ValueError(
                    "pass either a prebuilt engine or am/lm graphs, "
                    "not both"
                )
            self.engine = engine
        elif am is None or lm is None:
            raise ValueError("need either a prebuilt engine or am+lm graphs")
        else:
            self.engine = InlineEngine(
                am,
                lm,
                decoder_config,
                fuse=self.config.fuse_sessions,
                max_fused_sessions=self.config.max_sessions,
            )
        #: Serve-side acoustic scoring for ``features``-payload
        #: sessions.  Owned here, not by engines: engines keep their
        #: score-matrix interface, the scheduler resolves (scores)
        #: handles at dispatch.  ``None`` (no scorer available) rejects
        #: the ``features`` negotiation at START.
        self.scoring: ScoringService | None = (
            ScoringService(scorer) if scorer is not None else None
        )
        self.scheduler = Scheduler(
            self.engine,
            config=self.config.scheduler_config(),
            metrics=self.metrics,
            session_id_prefix=self.config.session_id_prefix,
        )
        self.port: int | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = False
        self._stopped = False
        #: Forwarding addresses for sessions exported to other shards:
        #: session id -> (host, port, shard index).  A request naming a
        #: moved session gets a ``moved`` redirect instead of an error.
        self._moved_sessions: dict[str, tuple[str, int, int]] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.scheduler.start()
        if self.config.port is not None:
            self._tcp_server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
            self.port = self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; with ``drain``, finish what's admitted."""
        if self._stopped:
            return
        self._stopped = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        await self.scheduler.stop(drain=drain)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.engine.close()

    async def __aenter__(self) -> "TranscriptionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- shared message handling -------------------------------------------

    def status_message(self) -> dict:
        """The ``/healthz``-style status + metrics snapshot."""
        return {
            "type": protocol.STATUS,
            "ok": not self._stopped,
            "draining": self.scheduler.draining,
            "active_sessions": self.scheduler.active_sessions,
            "scoring": None if self.scoring is None else "at-dispatch",
            "metrics": self.metrics.snapshot(),
        }

    def connect_local(self) -> "InProcessClient":
        """A client that speaks the protocol without a socket."""
        return InProcessClient(self)

    # -- shard migration ----------------------------------------------------

    def exportable_sessions(self) -> list[str]:
        """Sessions safe to hand to another shard right now."""
        return self.scheduler.exportable_sessions()

    async def export_session(
        self, session_id: str, host: str, port: int, shard: int
    ) -> dict:
        """Hand a session off toward the shard at ``host:port``.

        The session's engine state is snapshotted, its queued batches
        captured, and a ``moved`` redirect is delivered to any client
        still attached here; a tombstone answers later requests naming
        the id.  Returns the pickled handle the target's
        :meth:`adopt_session` consumes.
        """
        notice = protocol.moved_message(session_id, host, port, shard)
        handle = await self.scheduler.export_session(
            session_id, notice=notice
        )
        self._moved_sessions[session_id] = (host, port, shard)
        return handle

    async def adopt_session(self, handle: dict) -> None:
        """Accept a session another shard exported (move-in)."""
        await self.scheduler.adopt_session(handle)
        # The session lives here now; drop any stale forward so a
        # boomerang move (A -> B -> A) resolves locally again.
        self._moved_sessions.pop(handle["session_id"], None)

    # -- TCP transport ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        owned: dict[str, Session] = {}

        transport = writer.transport

        def send(message: dict) -> None:
            # Replies and session events alike are written where they
            # are produced; the read loop's drain below is the only wait.
            # A connection already going away (until this handler's
            # ``finally`` detaches it) takes nothing more.
            if not transport.is_closing():
                transport.write(protocol.encode_message(message))

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode_message(line)
                    await self._dispatch(message, owned, send)
                except protocol.ProtocolError as exc:
                    send(protocol.error_message(str(exc)))
                # Backpressure: a client that stops reading its replies
                # stops being read.
                await writer.drain()
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            # The client went away: nothing more is written to it, and
            # the sessions it still owns are dropped (no final result
            # to deliver to anyone).
            for session in owned.values():
                session.detach(send)
            for session in owned.values():
                if not session.closed:
                    await self.scheduler.cancel(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                # Teardown only: the transport is gone either way, and
                # letting a late cancel escape here trips asyncio's
                # connection_made callback on 3.11.
                pass

    async def _dispatch(
        self,
        message: dict,
        owned: dict[str, Session],
        send: Callable[[dict], None],
    ) -> None:
        kind = message["type"]
        if kind == protocol.START:
            payload, encoding = protocol.negotiate_start(message)
            if (
                payload == protocol.PAYLOAD_FEATURES
                and self.scoring is None
            ):
                send(
                    protocol.error_message(
                        "this server has no acoustic scorer; "
                        "stream scores instead"
                    )
                )
                return
            try:
                session = await self.scheduler.admit(payload=payload)
            except Busy as exc:
                send(protocol.busy_message(exc.reason))
                return
            owned[session.session_id] = session
            send(
                {
                    "type": protocol.STARTED,
                    "session": session.session_id,
                    "payload": payload,
                    "encoding": encoding,
                }
            )
            session.attach(send)
        elif kind == protocol.STATUS:
            send(self.status_message())
        elif kind == protocol.RESUME:
            session_id = message.get("session")
            session = (
                self.scheduler.get(session_id)
                if isinstance(session_id, str)
                else None
            )
            if session is not None and not session.closed:
                # The session id is the bearer token: whoever resumes
                # it owns its event stream from here on, starting with
                # whatever was emitted while nobody was attached.
                owned[session_id] = session
                send({"type": protocol.STARTED, "session": session_id})
                session.attach(send)
            elif session_id in self._moved_sessions:
                send(
                    protocol.moved_message(
                        session_id, *self._moved_sessions[session_id]
                    )
                )
            else:
                send(
                    protocol.error_message(
                        f"unknown session {session_id!r}", session_id
                    )
                )
        elif kind in (protocol.FRAMES, protocol.FINISH, protocol.CANCEL):
            session_id = message.get("session")
            session = owned.get(session_id)
            if session is None or session.closed:
                if session_id in self._moved_sessions:
                    # The request was NOT applied here: redirect with
                    # resend so the client replays it after resuming.
                    send(
                        protocol.moved_message(
                            session_id,
                            *self._moved_sessions[session_id],
                            resend=True,
                        )
                    )
                    return
            if session is None:
                send(
                    protocol.error_message(
                        f"unknown session {session_id!r}",
                        session_id,
                    )
                )
                return
            try:
                if kind == protocol.FRAMES:
                    if session.payload == protocol.PAYLOAD_FEATURES:
                        if "features" not in message:
                            raise protocol.ProtocolError(
                                "this session streams features; send a "
                                "'features' key"
                            )
                        features = protocol.payload_to_matrix(
                            message["features"]
                        )
                        batch = self.scoring.submit(features)
                    else:
                        if "scores" not in message:
                            raise protocol.ProtocolError(
                                "this session streams scores; send a "
                                "'scores' key"
                            )
                        batch = protocol.payload_to_scores(
                            message["scores"]
                        )
                    self.scheduler.push(session, batch)
                elif kind == protocol.FINISH:
                    self.scheduler.request_finish(session)
                else:
                    await self.scheduler.cancel(session)
            except Busy as exc:
                send(
                    protocol.busy_message(exc.reason, session.session_id)
                )
        else:
            send(protocol.error_message(f"unknown type {kind!r}"))


class InProcessClient:
    """The protocol surface without the socket (tests, benches)."""

    def __init__(self, server: TranscriptionServer) -> None:
        self._server = server

    async def open(
        self,
        key: str | None = None,
        payload: str = protocol.PAYLOAD_SCORES,
        encoding: str = protocol.ENCODING_LIST,
    ) -> "InProcessSession":
        """Open one streaming session; raises :class:`Busy` when the
        admission controller rejects it.  ``key`` is accepted for
        interface parity with the sharded client and ignored.

        ``payload``/``encoding`` mirror the wire's START negotiation:
        a ``features`` session pushes feature batches and the server
        scores them; a non-``list`` encoding reproduces the wire's
        quantization so transcripts match a TCP client's exactly.
        """
        del key
        payload, encoding = protocol.negotiate_start(
            {"type": protocol.START, "payload": payload, "encoding": encoding}
        )
        if (
            payload == protocol.PAYLOAD_FEATURES
            and self._server.scoring is None
        ):
            raise ServeError(
                "this server has no acoustic scorer; stream scores instead"
            )
        session = await self._server.scheduler.admit(payload=payload)
        return InProcessSession(self._server, session, encoding=encoding)

    async def status(self) -> dict:
        return self._server.status_message()

    async def close(self) -> None:  # symmetry with the TCP client
        return None


class InProcessSession:
    """One admitted stream driven through the in-process client."""

    def __init__(
        self,
        server: TranscriptionServer,
        session: Session,
        encoding: str = protocol.ENCODING_LIST,
    ) -> None:
        self._server = server
        self._session = session
        self._encoding = encoding
        #: Partial-hypothesis messages observed so far, in order.
        self.partials: list[dict] = []

    @property
    def session_id(self) -> str:
        return self._session.session_id

    async def _next_event(self) -> dict:
        event = await self._session.events.get()
        if event["type"] == protocol.PARTIAL:
            self.partials.append(event)
        return event

    def _submit(self, matrix: np.ndarray):
        """One pushed matrix as what the scheduler actually queues.

        Applies the negotiated encoding's quantization (so a ``b64f32``
        in-process session decodes exactly what its TCP twin would)
        and, on a ``features`` session, wraps the batch in the handle
        the dispatch will score.
        """
        matrix = np.asarray(matrix)
        if self._encoding != protocol.ENCODING_LIST:
            matrix = protocol.payload_to_matrix(
                protocol.matrix_to_payload(matrix, self._encoding)
            )
        if self._session.payload == protocol.PAYLOAD_FEATURES:
            return self._server.scoring.submit(matrix)
        return matrix

    async def push(self, scores: np.ndarray) -> dict:
        """Queue one batch and wait for its partial hypothesis.

        Raises :class:`~repro.serve.scheduler.Busy` when the session's
        frame queue is full (explicit backpressure — retry after the
        next partial arrives) and :class:`ServeError` when the server
        dropped the session.
        """
        self._server.scheduler.push(self._session, self._submit(scores))
        event = await self._next_event()
        if event["type"] == protocol.PARTIAL:
            return event
        raise ServeError(event.get("error", "session ended unexpectedly"))

    async def abort(self) -> None:
        """Abandon the stream mid-utterance (no final result).

        The in-process analogue of a client dropping its socket: the
        session is cancelled and its engine state discarded.
        """
        await self._server.scheduler.cancel(self._session)

    def push_nowait(self, scores: np.ndarray) -> None:
        """Queue one batch without waiting (several in flight); partials
        arrive via :meth:`finish`'s collection or :attr:`partials`."""
        self._server.scheduler.push(self._session, self._submit(scores))

    async def finish(self) -> dict:
        """End the utterance; returns the final message after draining
        any still-pending partials into :attr:`partials`."""
        try:
            self._server.scheduler.request_finish(self._session)
        except Busy:
            # Already finishing or retired (drain, eviction, stop): the
            # final or error event is queued — deliver that instead.
            pass
        while True:
            event = await self._next_event()
            if event["type"] == protocol.FINAL:
                return event
            if event["type"] == protocol.ERROR:
                raise ServeError(event["error"])
