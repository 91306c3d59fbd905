"""TCP client for the transcription service.

The socket-side mirror of the in-process client: the same ``open`` /
``push`` / ``finish`` / ``status`` surface over the NDJSON wire
protocol, so the load generator (and any application) can target
either transport unchanged.

A background reader task demultiplexes server messages: events tagged
with a session id go to that session's queue, untagged replies
(``started`` / admission ``busy`` / ``status`` / ``error``) resolve
the oldest pending control request.  Control requests (``open`` and
``status``) are serialized per connection; per-session streaming is
fully concurrent.

Sharded deployments add two layers, both route-aware:

* a :class:`TcpSession` that receives ``moved`` transparently follows
  the redirect — it connects to the named shard (connections are
  cached per endpoint in a peer map shared across the redirect chain),
  sends ``resume``, and replays the rejected request iff the redirect
  said ``resend`` — so callers never see the migration;
* :class:`ShardedClient` fronts a whole :class:`~repro.serve.shard.
  ShardedServer`: ``open(key=...)`` routes the session to its home
  shard through the same consistent-hash ring the server publishes.

One caveat is inherent to the redirect design: after a session moves,
its old connection keeps routing late replies to the session's queue.
If that old connection *drops* while the session lives elsewhere, its
end-of-stream error poisons the queue.  Keep the originating client
open until its sessions finish (both the load generator and the bench
do), or front everything with :class:`ShardedClient`, which owns every
connection for exactly that lifetime.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.serve import protocol
from repro.serve.scheduler import Busy
from repro.serve.server import ServeError

#: Reply types carrying no session id, routed to the control queue.
_CONTROL_TYPES = (protocol.STARTED, protocol.STATUS)

#: How long a redirected session keeps retrying ``resume`` before
#: giving up (covers the export-completes-before-adopt-lands race).
RELOCATE_TIMEOUT_SECONDS = 5.0


class TcpClient:
    """One NDJSON connection multiplexing many sessions."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: str | None = None,
        port: int | None = None,
        peers: dict | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.host = host
        self.port = port
        #: Endpoint -> client cache, shared across every client in one
        #: redirect chain so a moved session reuses connections.
        self._peers: dict[tuple[str, int], "TcpClient"] = (
            peers if peers is not None else {}
        )
        if host is not None and port is not None:
            self._peers.setdefault((host, port), self)
        self._sessions: dict[str, asyncio.Queue] = {}
        self._control: asyncio.Queue = asyncio.Queue()
        self._control_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="serve-client-reader"
        )

    @classmethod
    async def connect(
        cls, host: str, port: int, peers: dict | None = None
    ) -> "TcpClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port, peers=peers)

    async def peer(self, host: str, port: int) -> "TcpClient":
        """The client for ``host:port``, connecting and caching it on
        first use.  Returns ``self`` for this client's own endpoint."""
        key = (host, port)
        client = self._peers.get(key)
        if client is None or client._closed:
            client = await TcpClient.connect(host, port, peers=self._peers)
            self._peers[key] = client
        return client

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = protocol.decode_message(line)
                session_id = message.get("session")
                queue = (
                    self._sessions.get(session_id)
                    if session_id is not None
                    else None
                )
                if queue is not None:
                    queue.put_nowait(message)
                else:
                    self._control.put_nowait(message)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            self._closed = True
            # Unblock anyone still waiting.
            eof = protocol.error_message("connection closed")
            self._control.put_nowait(eof)
            for queue in self._sessions.values():
                queue.put_nowait(eof)

    async def _send(self, message: dict) -> None:
        if self._closed:
            raise ServeError("connection closed")
        async with self._write_lock:
            self._writer.write(protocol.encode_message(message))
            await self._writer.drain()

    async def _control_request(self, message: dict) -> dict:
        async with self._control_lock:
            await self._send(message)
            return await self._control.get()

    async def open(
        self,
        key: str | None = None,
        payload: str = protocol.PAYLOAD_SCORES,
        encoding: str = protocol.ENCODING_LIST,
    ) -> "TcpSession":
        """Open a session; raises :class:`Busy` on admission reject.

        ``key`` is accepted for interface parity with
        :class:`ShardedClient` (which routes on it); a single-endpoint
        client has nowhere else to send the session.

        ``payload`` selects what FRAMES batches carry (``scores``, or
        ``features`` for server-side scoring); ``encoding``
        selects the wire form (exact ``list`` or compact ``b64f32``).
        The server echoes the negotiated pair on STARTED and the
        session sends accordingly.
        """
        del key
        start = {"type": protocol.START}
        if payload != protocol.PAYLOAD_SCORES:
            start["payload"] = payload
        if encoding != protocol.ENCODING_LIST:
            start["encoding"] = encoding
        reply = await self._control_request(start)
        if reply["type"] == protocol.BUSY:
            raise Busy(reply.get("reason", "busy"))
        if reply["type"] != protocol.STARTED:
            raise ServeError(reply.get("error", f"unexpected reply {reply}"))
        session_id = reply["session"]
        queue: asyncio.Queue = asyncio.Queue()
        self._sessions[session_id] = queue
        return TcpSession(
            self,
            session_id,
            queue,
            payload=reply.get("payload", payload),
            encoding=reply.get("encoding", encoding),
        )

    async def status(self) -> dict:
        reply = await self._control_request({"type": protocol.STATUS})
        if reply["type"] != protocol.STATUS:
            raise ServeError(reply.get("error", f"unexpected reply {reply}"))
        return reply

    async def close(self) -> None:
        # Close every connection in the shared peer map (redirects may
        # have grown it past the one the caller dialed).
        clients = {id(self): self}
        for client in self._peers.values():
            clients.setdefault(id(client), client)
        for client in clients.values():
            await client._close_one()

    async def _close_one(self) -> None:
        if self._closed and self._reader_task.done():
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


class TcpSession:
    """One streaming session over a :class:`TcpClient` connection.

    The session follows ``moved`` redirects by itself: it re-homes its
    event queue onto the target shard's connection, performs the
    ``resume`` handshake, and — when the redirect flagged ``resend`` —
    replays the one request the old shard rejected.  Callers just see
    their partial or final arrive.
    """

    def __init__(
        self,
        client: TcpClient,
        session_id: str,
        events: asyncio.Queue,
        payload: str = protocol.PAYLOAD_SCORES,
        encoding: str = protocol.ENCODING_LIST,
    ) -> None:
        self._client = client
        self.session_id = session_id
        self._events = events
        #: Negotiated at open: which key FRAMES batches ride in and
        #: how the matrix is encoded on the wire.
        self.payload = payload
        self.encoding = encoding
        #: Partial-hypothesis messages observed so far, in order.
        self.partials: list[dict] = []
        #: ``retrying``/``recovered`` notices observed so far, in order.
        self.notices: list[dict] = []
        #: ``moved`` redirects this session followed, in order.
        self.moves: list[dict] = []

    async def _next_event(self) -> dict:
        while True:
            event = await self._events.get()
            if event["type"] in protocol.NOTICE_TYPES:
                self.notices.append(event)
                continue
            if event["type"] == protocol.STARTED:
                # A stale resume acknowledgement (the redirect that
                # triggered it was already handled) — not an event.
                continue
            if event["type"] == protocol.PARTIAL:
                self.partials.append(event)
            return event

    async def _relocate(self, event: dict) -> bool:
        """Follow one ``moved`` redirect; returns True iff a request
        must be re-sent on the new shard.

        Handshake: connect (or reuse) the target endpoint, route this
        session's queue there, send ``resume``, and wait for
        ``started``.  A further ``moved`` during the handshake
        re-targets (its ``resend`` accumulates); an ``error`` retries
        briefly — the destination may not have adopted the session
        yet when the redirect reaches us.  The old connection keeps
        routing to the same queue, so a late redirect reply to the
        request that triggered the move still lands here.
        """
        self.moves.append(event)
        resend = bool(event.get("resend"))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + RELOCATE_TIMEOUT_SECONDS
        while True:
            target = await self._client.peer(event["host"], event["port"])
            target._sessions[self.session_id] = self._events
            self._client = target
            await target._send(
                {"type": protocol.RESUME, "session": self.session_id}
            )
            retry = False
            while not retry:
                reply = await self._events.get()
                kind = reply["type"]
                if kind == protocol.STARTED:
                    return resend
                if kind == protocol.MOVED:
                    # Moved again mid-handshake.  Usually this is the
                    # old shard's late reply to the request that
                    # triggered the move (same destination — the
                    # resume already in flight covers it); a different
                    # destination means a rebalance raced us, so
                    # re-target.
                    self.moves.append(reply)
                    resend = resend or bool(reply.get("resend"))
                    if (reply["host"], reply["port"]) != (
                        event["host"],
                        event["port"],
                    ):
                        event = reply
                        break
                    continue
                if kind in protocol.NOTICE_TYPES:
                    self.notices.append(reply)
                elif kind == protocol.PARTIAL:
                    self.partials.append(reply)
                elif kind == protocol.ERROR:
                    if loop.time() >= deadline:
                        raise ServeError(
                            "session "
                            f"{self.session_id!r} failed to resume on "
                            f"{event['host']}:{event['port']}: "
                            f"{reply.get('error', 'unknown error')}"
                        )
                    await asyncio.sleep(0.02)
                    retry = True
                else:
                    raise ServeError(
                        f"unexpected reply during resume: {reply}"
                    )

    async def push(self, scores: np.ndarray) -> dict:
        """Send one batch and wait for its partial hypothesis.

        The batch rides in the key the session negotiated (``scores``
        or ``features``), in the negotiated encoding.
        """
        message = {
            "type": protocol.FRAMES,
            "session": self.session_id,
            self.payload: protocol.matrix_to_payload(
                np.asarray(scores), self.encoding
            ),
        }
        await self._client._send(message)
        while True:
            event = await self._next_event()
            if event["type"] == protocol.PARTIAL:
                return event
            if event["type"] == protocol.BUSY:
                raise Busy(event.get("reason", "busy"))
            if event["type"] == protocol.MOVED:
                if await self._relocate(event):
                    await self._client._send(message)
                continue
            raise ServeError(
                event.get("error", "session ended unexpectedly")
            )

    async def abort(self) -> None:
        """Abandon the stream mid-utterance (no final result).

        Sends ``cancel`` and drains this session's events until the
        server's terminal ``cancelled`` acknowledgement (late partials
        in flight are drained into :attr:`partials` on the way).
        """
        message = {"type": protocol.CANCEL, "session": self.session_id}
        await self._client._send(message)
        while True:
            event = await self._next_event()
            if event["type"] == protocol.MOVED:
                if await self._relocate(event):
                    await self._client._send(message)
                continue
            if event["type"] in (protocol.CANCELLED, protocol.ERROR):
                self._client._sessions.pop(self.session_id, None)
                return

    async def finish(self) -> dict:
        """End the utterance and wait for the final result."""
        message = {"type": protocol.FINISH, "session": self.session_id}
        await self._client._send(message)
        while True:
            event = await self._next_event()
            if event["type"] == protocol.FINAL:
                self._client._sessions.pop(self.session_id, None)
                return event
            if event["type"] == protocol.MOVED:
                if await self._relocate(event):
                    await self._client._send(message)
                continue
            if event["type"] == protocol.ERROR:
                self._client._sessions.pop(self.session_id, None)
                raise ServeError(event["error"])


class ShardedClient:
    """Route sessions across a sharded deployment's endpoints.

    The client builds the same consistent-hash ring the server uses
    (:class:`~repro.serve.shard.ShardRouter` over the endpoint count),
    so ``open(key=...)`` lands each session on its home shard without
    asking anyone.  Connections are dialed lazily per shard and all
    share one peer map — a session that migrates mid-stream re-homes
    onto the existing connection for its new shard.
    """

    def __init__(
        self, endpoints: list[tuple[str, int]], virtual_nodes: int | None = None
    ) -> None:
        from repro.serve.shard import DEFAULT_VIRTUAL_NODES, ShardRouter

        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.endpoints = list(endpoints)
        self.router = ShardRouter(
            len(endpoints),
            virtual_nodes=(
                virtual_nodes
                if virtual_nodes is not None
                else DEFAULT_VIRTUAL_NODES
            ),
        )
        self._peers: dict[tuple[str, int], TcpClient] = {}
        self._round_robin = 0

    async def _client_for(self, endpoint: tuple[str, int]) -> TcpClient:
        client = self._peers.get(endpoint)
        if client is None or client._closed:
            client = await TcpClient.connect(*endpoint, peers=self._peers)
        return client

    async def open(
        self,
        key: str | None = None,
        payload: str = protocol.PAYLOAD_SCORES,
        encoding: str = protocol.ENCODING_LIST,
    ) -> TcpSession:
        """Open a session on ``key``'s home shard.

        Without a key, shards are used round-robin — callers that
        don't care about placement still spread load.
        """
        if key is not None:
            shard = self.router.shard_for(key)
        else:
            shard = self._round_robin % len(self.endpoints)
            self._round_robin += 1
        client = await self._client_for(self.endpoints[shard])
        return await client.open(payload=payload, encoding=encoding)

    async def status(self) -> dict:
        """Cluster status: per-shard views + summed counters/gauges."""
        statuses = []
        for endpoint in self.endpoints:
            client = await self._client_for(endpoint)
            statuses.append(await client.status())
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for status in statuses:
            metrics = status.get("metrics", {})
            for name, value in metrics.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in metrics.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0) + value
        return {
            "type": protocol.STATUS,
            "ok": all(s.get("ok") for s in statuses),
            "shards": statuses,
            "num_shards": len(statuses),
            "active_sessions": sum(
                s.get("active_sessions", 0) for s in statuses
            ),
            "metrics": {
                "counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
            },
        }

    async def close(self) -> None:
        clients = {id(c): c for c in self._peers.values()}
        for client in clients.values():
            await client._close_one()
        self._peers.clear()
