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

Sharded deployments add three layers, all route-aware:

* a :class:`TcpSession` that receives ``moved`` transparently follows
  the redirect — it connects to the named shard (connections are
  cached per endpoint in a peer map shared across the redirect chain),
  sends ``resume``, and replays the rejected request iff the redirect
  said ``resend`` — so callers never see the migration;
* a :class:`TcpSession` whose connection drops (its shard died) opens
  a fresh session on the same endpoint, where the shard is respawned,
  and re-pushes every batch it sent.  The client is the one process
  that outlives a shard and already holds the input, so this needs no
  server-side checkpoint and no new message; decoding is
  deterministic, so the partials and the final are the uninterrupted
  session's;
* :class:`ShardedClient` fronts a whole :class:`~repro.serve.shard.
  ShardedServer`: ``open(key=...)`` routes the session to its home
  shard through the same consistent-hash ring the server publishes.

After a session moves, its old connection keeps routing late replies
to the session's queue; if that old connection drops, its
end-of-stream marker is recognised as not the session's own and
skipped.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.serve import protocol
from repro.serve.scheduler import Busy
from repro.serve.server import ServeError

#: How long a session keeps trying to get back to its server before
#: giving up: a redirected one retrying ``resume`` (covers the
#: export-completes-before-adopt-lands race), and one whose connection
#: dropped re-opening on its endpoint (covers a shard's respawn).
RELOCATE_TIMEOUT_SECONDS = 5.0

#: Pause between those attempts.
RETRY_SECONDS = 0.02


def _start_message(payload: str, encoding: str) -> dict:
    start = {"type": protocol.START}
    if payload != protocol.PAYLOAD_SCORES:
        start["payload"] = payload
    if encoding != protocol.ENCODING_LIST:
        start["encoding"] = encoding
    return start


async def _dial(peers: dict, host: str, port: int) -> "TcpClient":
    """The live client for ``host:port`` in ``peers``, connecting and
    caching one on first use or once the cached one has dropped.

    Callers that raced to reconnect end up sharing one connection: the
    first to finish is kept, the others close theirs.
    """
    key = (host, port)
    client = peers.get(key)
    if client is not None and not client._closed:
        return client
    fresh = await TcpClient.connect(host, port, peers=peers)
    client = peers.get(key)
    if client is not fresh and client is not None and not client._closed:
        await fresh._close_one()
        return client
    peers[key] = fresh
    return fresh


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
        #: What every waiter on this connection receives when it drops
        #: (compared by identity: a session tells its own connection's
        #: end from an old one's).
        self.lost = protocol.error_message("connection closed")
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
        return await _dial(self._peers, host, port)

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
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            self._closed = True
            self._writer.close()
            # Unblock anyone still waiting.
            self._control.put_nowait(self.lost)
            for queue in self._sessions.values():
                queue.put_nowait(self.lost)

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
        reply = await self._control_request(_start_message(payload, encoding))
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
    replays the one request the old shard rejected.  It also survives
    its server's death: it keeps every FRAMES message it sent since
    open, and when its connection drops it re-opens on the same
    endpoint and re-pushes them (:meth:`_replay`).  Callers just see
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
        #: ``moved`` redirects this session followed, in order.
        self.moves: list[dict] = []
        #: Every FRAMES message sent since open, in order: what a
        #: replay re-pushes.
        self._sent: list[dict] = []
        self._finishing = False

    async def _event(self) -> dict:
        """The next event, minus the end-of-stream markers of
        connections this session moved away from."""
        while True:
            event = await self._events.get()
            if "session" in event or event is self._client.lost:
                return event

    async def _next_event(self, replay: bool = True) -> dict:
        while True:
            event = await self._event()
            if event["type"] == protocol.STARTED:
                # A stale resume acknowledgement (the redirect that
                # triggered it was already handled) — not an event.
                continue
            if event is self._client.lost and replay:
                await self._replay()
                continue
            if event["type"] == protocol.PARTIAL:
                self.partials.append(event)
            return event

    async def _send(self, message: dict) -> None:
        """Send on the session's connection.  A dropped connection is
        not an error here: its end-of-stream marker reaches
        :meth:`_next_event`, which replays."""
        try:
            await self._client._send(message)
        except (ServeError, OSError):
            pass

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
        request that triggered the move still lands here.  If the
        target's connection drops, the session replays there (which
        re-sends everything, so nothing is left to re-send).
        """
        self.moves.append(event)
        resend = bool(event.get("resend"))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + RELOCATE_TIMEOUT_SECONDS
        while True:
            target = await self._client.peer(event["host"], event["port"])
            target._sessions[self.session_id] = self._events
            self._client = target
            await self._send(
                {"type": protocol.RESUME, "session": self.session_id}
            )
            retry = False
            while not retry:
                reply = await self._event()
                if reply is self._client.lost:
                    await self._replay()
                    return False
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
                if kind == protocol.PARTIAL:
                    self.partials.append(reply)
                elif kind == protocol.ERROR:
                    if loop.time() >= deadline:
                        raise ServeError(
                            "session "
                            f"{self.session_id!r} failed to resume on "
                            f"{event['host']}:{event['port']}: "
                            f"{reply.get('error', 'unknown error')}"
                        )
                    await asyncio.sleep(RETRY_SECONDS)
                    retry = True
                else:
                    raise ServeError(
                        f"unexpected reply during resume: {reply}"
                    )

    async def _replay(self) -> None:
        """Re-open this session on its endpoint and re-push its batches.

        Its connection dropped, so its server — and the session's
        decode state — is gone; a sharded server respawns the shard on
        the same port.  The session opens afresh there, retrying until
        ``RELOCATE_TIMEOUT_SECONDS`` has passed (then it raises
        :class:`ServeError`).  The batches whose partials the caller
        already has are re-pushed one at a time (the server's
        per-session queue is bounded) and their partials dropped; the
        rest, and a pending ``finish``, are re-sent as they were, so
        their replies reach the caller as if nothing had happened.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + RELOCATE_TIMEOUT_SECONDS
        host, port = self._client.host, self._client.port
        while True:
            await self._reopen(host, port, deadline)
            if await self._catch_up():
                break
        for message in self._sent[len(self.partials) :]:
            message["session"] = self.session_id
            await self._send(message)
        if self._finishing:
            await self._send(
                {"type": protocol.FINISH, "session": self.session_id}
            )

    async def _reopen(self, host: str, port: int, deadline: float) -> None:
        """Start a fresh session on ``host:port`` and move onto it."""
        loop = asyncio.get_running_loop()
        start = _start_message(self.payload, self.encoding)
        while True:
            reply = None
            try:
                client = await _dial(self._client._peers, host, port)
                reply = await client._control_request(start)
            except (OSError, ServeError):
                pass
            if reply is not None and reply["type"] == protocol.STARTED:
                break
            if loop.time() >= deadline:
                raise ServeError(
                    f"session {self.session_id!r} lost its server at "
                    f"{host}:{port}, which did not come back within "
                    f"{RELOCATE_TIMEOUT_SECONDS:g}s"
                )
            await asyncio.sleep(RETRY_SECONDS)
        self._client = client
        self.session_id = reply["session"]
        client._sessions[self.session_id] = self._events

    async def _catch_up(self) -> bool:
        """Re-push the batches whose partials were delivered, one at a
        time, dropping their partials.  False if the connection
        dropped again."""
        for message in self._sent[: len(self.partials)]:
            message["session"] = self.session_id
            while True:
                await self._send(message)
                reply = await self._event()
                while reply["type"] == protocol.STARTED:
                    reply = await self._event()
                if reply is self._client.lost:
                    return False
                if reply["type"] == protocol.PARTIAL:
                    break
                if reply["type"] != protocol.BUSY:
                    raise ServeError(
                        reply.get("error", f"unexpected replay reply {reply}")
                    )
                await asyncio.sleep(RETRY_SECONDS)
        return True

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
        self._sent.append(message)
        await self._send(message)
        while True:
            event = await self._next_event()
            if event["type"] == protocol.PARTIAL:
                return event
            if event["type"] == protocol.BUSY:
                # Not queued: forget it, the caller retries the batch.
                self._sent.pop()
                raise Busy(event.get("reason", "busy"))
            if event["type"] == protocol.MOVED:
                if await self._relocate(event):
                    message["session"] = self.session_id
                    await self._send(message)
                continue
            raise ServeError(
                event.get("error", "session ended unexpectedly")
            )

    async def abort(self) -> None:
        """Abandon the stream mid-utterance (no final result).

        Sends ``cancel`` and drains this session's events until the
        server's terminal ``cancelled`` acknowledgement (late partials
        in flight are drained into :attr:`partials` on the way).  A
        session whose connection dropped is gone already: abort
        returns without a word.
        """
        message = {"type": protocol.CANCEL, "session": self.session_id}
        await self._send(message)
        while True:
            event = await self._next_event(replay=False)
            if event["type"] == protocol.MOVED:
                if await self._relocate(event):
                    message["session"] = self.session_id
                    await self._send(message)
                continue
            if event["type"] in (protocol.CANCELLED, protocol.ERROR):
                self._client._sessions.pop(self.session_id, None)
                return

    async def finish(self) -> dict:
        """End the utterance and wait for the final result."""
        message = {"type": protocol.FINISH, "session": self.session_id}
        self._finishing = True
        await self._send(message)
        while True:
            event = await self._next_event()
            if event["type"] == protocol.FINAL:
                self._client._sessions.pop(self.session_id, None)
                return event
            if event["type"] == protocol.MOVED:
                if await self._relocate(event):
                    message["session"] = self.session_id
                    await self._send(message)
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
    onto the existing connection for its new shard, and one whose
    shard died re-dials the same endpoint.
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
        return await _dial(self._peers, *endpoint)

    async def open(
        self,
        key: str | None = None,
        payload: str = protocol.PAYLOAD_SCORES,
        encoding: str = protocol.ENCODING_LIST,
    ) -> TcpSession:
        """Open a session on ``key``'s home shard.

        Without a key, shards are used round-robin — callers that
        don't care about placement still spread load.  While the home
        shard is down (refused or dropped connection: it is being
        respawned), the open is retried for up to
        ``RELOCATE_TIMEOUT_SECONDS``.
        """
        if key is not None:
            shard = self.router.shard_for(key)
        else:
            shard = self._round_robin % len(self.endpoints)
            self._round_robin += 1
        endpoint = self.endpoints[shard]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + RELOCATE_TIMEOUT_SECONDS
        while True:
            client = self._peers.get(endpoint)
            try:
                client = await self._client_for(endpoint)
                return await client.open(payload=payload, encoding=encoding)
            except (OSError, ServeError):
                # Only a refused or dropped connection is worth another
                # try; a live server's error reply is final.
                live = client is not None and not client._closed
                if live or loop.time() >= deadline:
                    raise
            await asyncio.sleep(RETRY_SECONDS)

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
