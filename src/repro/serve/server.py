"""The asynchronous transcription server.

:class:`TranscriptionServer` assembles the serving stack: the
in-process :class:`~repro.serve.engine.InlineEngine`, the
:class:`~repro.serve.scheduler.Scheduler` with its admission bounds,
a :class:`~repro.serve.metrics.MetricsRegistry`, and — when a
port is configured — a newline-delimited-JSON TCP listener speaking
:mod:`repro.serve.protocol`.

Two client surfaces, one protocol:

* the TCP transport, for real deployments and the load generator: each
  connection is an :class:`asyncio.Protocol` whose read callback
  dispatches every complete line it brings, and whose replies leave in
  one socket write per loop turn — no task per connection or session;
* :meth:`TranscriptionServer.connect_local` — an in-process client
  whose sessions speak the same message dicts straight to the
  scheduler.  Tests use it to drive genuinely concurrent sessions
  without sockets.

Shutdown is graceful by default: ``stop()`` stops admitting, drains
every in-flight session to a real final result, writes each
connection's pending replies and closes it, then closes the engine.

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
from repro.serve.protocol import ServeError
from repro.serve.scheduler import Busy, Scheduler, SchedulerConfig, Session
from repro.serve.scoring import ScoringService


@dataclass(frozen=True)
class ServeConfig:
    """Server assembly knobs (transport + admission)."""

    host: str = "127.0.0.1"
    #: TCP port; ``None`` serves in-process clients only, ``0`` binds
    #: an ephemeral port (read it back from ``server.port``).
    port: int | None = None
    max_sessions: int = 8
    max_queued_batches: int = 4
    idle_timeout_seconds: float = 30.0
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
            # over a decoder attached to shared memory).  The scorer
            # stays the server's either way: scoring happens here.
            if am is not None or lm is not None:
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
        self._connections: set[_Connection] = set()
        self._started = False
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.scheduler.start()
        if self.config.port is not None:
            self._tcp_server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), self.config.host, self.config.port
            )
            self.port = self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; with ``drain``, finish what's admitted."""
        if self._stopped:
            return
        self._stopped = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        await self.scheduler.stop(drain=drain)
        # Only now, every session retired, does each connection write
        # what it still holds and close: closing one sooner would
        # cancel its sessions and lose their finals.
        for connection in list(self._connections):
            connection.close()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
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

    def _dispatch(
        self,
        message: dict,
        owned: dict[str, Session],
        send: Callable[[dict], None],
    ) -> None:
        """Serve one decoded request from a TCP client; ``owned`` holds
        its connection's sessions and ``send`` is its reply sink."""
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
                session = self.scheduler.admit(payload=payload)
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
            session.sink = send
        elif kind == protocol.STATUS:
            send(self.status_message())
        elif kind in (protocol.FRAMES, protocol.FINISH, protocol.CANCEL):
            session_id = message.get("session")
            session = owned.get(session_id)
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
                    # The negotiated payload names the key it rides in.
                    key = session.payload
                    if key not in message:
                        raise protocol.ProtocolError(
                            f"this session streams {key}; send a {key!r} key"
                        )
                    batch = protocol.payload_to_matrix(message[key])
                    if key == protocol.PAYLOAD_FEATURES:
                        batch = self.scoring.submit(batch)
                    self.scheduler.push(session, batch)
                elif kind == protocol.FINISH:
                    self.scheduler.request_finish(session)
                else:
                    self.scheduler.cancel(session)
            except Busy as exc:
                send(
                    protocol.busy_message(exc.reason, session.session_id)
                )
        else:
            send(protocol.error_message(f"unknown type {kind!r}"))


class _Connection(asyncio.Protocol):
    """One TCP client, served from the loop's callbacks.

    Every complete line a read brings is decoded and dispatched in that
    read's callback.  Replies, and the events of the sessions this
    connection started, are encoded into a buffer that goes out in one
    ``transport.write`` per loop turn, so the partials of one fused
    cycle share a write.  Backpressure is the transport's: while its
    write buffer is over the high-water mark the connection is not
    read, so a client that stops reading its replies stops being read
    and can queue at most ``max_queued_batches`` per session.
    """

    def __init__(self, server: TranscriptionServer) -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        #: The sessions this client started, by id.
        self._owned: dict[str, Session] = {}
        #: The bytes of an incomplete line, up to ``MAX_LINE_BYTES``.
        self._partial = bytearray()
        #: Inside a line past ``MAX_LINE_BYTES``, until its newline.
        self._skipping = False
        #: Encoded replies for this turn's write.
        self._pending: list[bytes] = []

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._call_soon = asyncio.get_running_loop().call_soon
        self._server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        lines = data.split(b"\n")
        tail = lines.pop()  # after the last newline: an incomplete line
        if lines:
            if self._skipping:
                # The over-long line ends here.
                self._skipping = False
                lines[0] = None
            elif self._partial:
                lines[0] = bytes(self._partial + lines[0])
                self._partial.clear()
            for line in lines:
                self._serve_line(line)
        elif self._skipping:
            return
        self._partial += tail
        if len(self._partial) > protocol.MAX_LINE_BYTES:
            self._partial.clear()
            self._skipping = True

    def eof_received(self) -> None:
        # A last line without its newline is still served.
        if self._partial and not self._skipping:
            self._serve_line(bytes(self._partial))
        self._flush()
        # Returning None closes the transport (after its buffer drains).

    def connection_lost(self, exc: Exception | None) -> None:
        # The client went away: nothing more is written to it, and the
        # sessions it still owns are dropped (no final result to
        # deliver to anyone).
        self._server._connections.discard(self)
        self._pending.clear()
        for session in self._owned.values():
            session.sink = None
        for session in self._owned.values():
            if not session.closed:
                self._server.scheduler.cancel(session)

    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    # -- requests and replies -----------------------------------------------

    def _serve_line(self, line: bytes | None) -> None:
        """Dispatch one wire line; ``None`` stands for an over-long one."""
        try:
            if line is None or len(line) > protocol.MAX_LINE_BYTES:
                raise protocol.ProtocolError(
                    f"message longer than {protocol.MAX_LINE_BYTES} bytes"
                )
            message = protocol.decode_message(line)
            self._server._dispatch(message, self._owned, self.send)
        except protocol.ProtocolError as exc:
            self.send(protocol.error_message(str(exc)))

    def send(self, message: dict) -> None:
        """Queue one message for this turn's write (the session sink)."""
        pending = self._pending
        pending.append(protocol.encode_message(message))
        if len(pending) == 1:
            self._call_soon(self._flush)

    def _flush(self) -> None:
        if self._pending and not self._transport.is_closing():
            self._transport.write(b"".join(self._pending))
        self._pending.clear()

    def close(self) -> None:
        """Write what is pending, then close (the server is stopping)."""
        self._flush()
        self._transport.close()


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
        session = self._server.scheduler.admit(payload=payload)
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
        self._server.scheduler.cancel(self._session)

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
