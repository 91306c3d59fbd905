"""The asynchronous transcription server.

:class:`TranscriptionServer` assembles the serving stack: the
in-process :class:`~repro.serve.engine.InlineEngine`, the
:class:`~repro.serve.scheduler.Scheduler` with its admission bounds,
a :class:`~repro.serve.metrics.MetricsRegistry`, and — when a
port is configured — a newline-delimited-JSON TCP listener speaking
:mod:`repro.serve.protocol`.

One way in: every request arrives on a connection, an
:class:`asyncio.Protocol` whose read callback hands each complete line
to :meth:`TranscriptionServer._dispatch`, and whose replies leave in
one socket write per loop turn — no task per connection or session.
A connection is accepted from the TCP listener, or made by
:meth:`TranscriptionServer.connect_local`, which returns a
:class:`~repro.serve.client.TcpClient` over a socket pair: tests and
embedded callers get the wire client without a listener or a port.

Shutdown is graceful by default: ``stop()`` stops admitting, drains
every in-flight session to a real final result, writes each
connection's pending replies and closes it, then closes the engine.

The server is one thread and one process.  To serve from several
processes, :class:`~repro.serve.shard.ShardedServer` runs one of these
per shard over a shared recognizer segment.
"""

from __future__ import annotations

import asyncio
import socket
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.am.graph import AmGraph
from repro.am.scorer import AcousticScorer
from repro.core.decoder import DecoderConfig
from repro.lm.graph import LmGraph
from repro.serve import protocol
from repro.serve.engine import InlineEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import Busy, Scheduler, SchedulerConfig, Session

if TYPE_CHECKING:
    from repro.serve.client import TcpClient


@dataclass(frozen=True)
class ServeConfig:
    """Server assembly knobs (transport + admission)."""

    host: str = "127.0.0.1"
    #: TCP port; ``None`` serves local clients only, ``0`` binds
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
            # stays the server's either way: its scheduler scores.
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
        # Serve-side acoustic scoring for ``features``-payload
        # sessions is the scheduler's, at push: engines keep their
        # score-matrix interface.  With no scorer, START rejects the
        # ``features`` payload.
        self.scheduler = Scheduler(
            self.engine,
            config=self.config.scheduler_config(),
            metrics=self.metrics,
            session_id_prefix=self.config.session_id_prefix,
            scorer=scorer,
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
            "scoring": None if self.scheduler.scorer is None else "at-push",
            "metrics": self.metrics.snapshot(),
        }

    async def connect_local(self) -> "TcpClient":
        """A :class:`~repro.serve.client.TcpClient` connected to this
        server over a socket pair, with no listener or port.  It has
        no endpoint to re-open a lost session on, so a lost connection
        fails its sessions at once."""
        from repro.serve.client import TcpClient

        ours, theirs = socket.socketpair()
        try:
            await asyncio.get_running_loop().connect_accepted_socket(
                lambda: _Connection(self), ours
            )
            reader, writer = await asyncio.open_connection(sock=theirs)
        except BaseException:
            ours.close()
            theirs.close()
            raise
        return TcpClient(reader, writer)

    def _dispatch(
        self,
        message: dict,
        owned: dict[str, Session],
        send: Callable[[dict], None],
    ) -> None:
        """Serve one decoded request, the only way one reaches the
        scheduler; ``owned`` holds its connection's live sessions (a
        session leaves it as it retires, so a request naming a retired
        one gets an ``error`` naming it) and ``send`` is its reply
        sink."""
        kind = message["type"]
        if kind == protocol.START:
            payload = protocol.negotiate_start(message)
            if (
                payload == protocol.PAYLOAD_FEATURES
                and self.scheduler.scorer is None
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
            session.on_retire = partial(owned.pop, session.session_id, None)
            send(
                {
                    "type": protocol.STARTED,
                    "session": session.session_id,
                    "payload": payload,
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
                        f"unknown session {session_id!r}: not started "
                        "on this connection, or already closed",
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
                    self.scheduler.push(session, batch)
                elif kind == protocol.FINISH:
                    self.scheduler.request_finish(session)
                else:
                    self.scheduler.cancel(session)
            except Busy as exc:
                send(
                    protocol.busy_message(exc.reason, session.session_id)
                )
            except protocol.ProtocolError as exc:
                # Unreadable, so never queued.  The error names the
                # session, so its client's pending push gets it.
                self.scheduler.fail(session, str(exc))
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
        #: The live sessions this client started, by id.
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
        for session in list(self._owned.values()):
            session.sink = None
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
