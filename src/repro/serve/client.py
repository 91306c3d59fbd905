"""The client of the transcription service.

:class:`TcpClient` speaks the NDJSON wire protocol over one
connection: ``open`` / ``push`` / ``finish`` / ``status``.  It is the
one client: :meth:`~repro.serve.server.TranscriptionServer.
connect_local` returns one over a socket pair, and the load generator
(and any application) drives it, or :class:`ShardedClient`, unchanged.

A background reader task demultiplexes server messages: events tagged
with a session id go to that session's queue (or are dropped once the
session has ended), and ``started`` and the untagged replies (admission
``busy`` / ``status`` / ``error``) resolve the oldest pending control
request.  Control requests (``open`` and ``status``) are serialized per
connection; per-session streaming is fully concurrent.  A session that
has received its ``final``, ``error`` or ``cancelled`` is over: a later
``push`` or ``finish`` raises :class:`ServeError` without sending.

Sharded deployments add two things:

* a :class:`TcpSession` whose session is lost opens a fresh one and
  re-pushes every batch it sent.  It is lost when its connection drops
  (its shard died; the fresh session opens on the same endpoint, where
  the shard is respawned) or when its server says ``moved`` (a
  rebalance dropped it; the fresh session opens on the shard the
  message names).  The client is the one process that outlives a
  shard and already holds the input, so this needs no server-side
  checkpoint; decoding is deterministic, so the partials and the
  final are the uninterrupted session's;
* :class:`ShardedClient` fronts a whole :class:`~repro.serve.shard.
  ShardedServer`: ``open(key=...)`` routes the session to its home
  shard through the same consistent-hash ring the server publishes.

Connections are cached per endpoint in a peer map that the sessions
opened through one client share.  After a replay, the old connection
keeps routing the old id's late replies to the session's queue; the
session drops every event that does not carry its current id.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import ServeError
from repro.serve.scheduler import Busy

#: How long a lost session keeps re-opening before it gives up,
#: counted from its first loss since the caller's last partial (it
#: covers a shard's respawn); also how long ``ShardedClient.open``
#: retries a shard that is down.
RELOCATE_TIMEOUT_SECONDS = 5.0

#: Pause between those attempts.
RETRY_SECONDS = 0.02

#: The messages after which a session is over.
_ENDINGS = (protocol.FINAL, protocol.ERROR, protocol.CANCELLED)


def _start_message(payload: str) -> dict:
    start = {"type": protocol.START}
    if payload != protocol.PAYLOAD_SCORES:
        start["payload"] = payload
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
    """One NDJSON connection multiplexing many sessions.

    A client made with an endpoint (``host``, ``port``) re-opens a lost
    session there; one made without (over a socket pair) has nowhere to
    go, so a lost connection fails its sessions at once.
    """

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
        #: Endpoint -> client cache, shared by every client a session
        #: opened here may replay onto.
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

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = protocol.decode_message(line)
                session_id = message.get("session")
                if session_id is None or message["type"] == protocol.STARTED:
                    self._control.put_nowait(message)
                    continue
                queue = self._sessions.get(session_id)
                if queue is not None:
                    queue.put_nowait(message)
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
    ) -> "TcpSession":
        """Open a session; raises :class:`Busy` on admission reject.

        ``key`` is accepted for interface parity with
        :class:`ShardedClient` (which routes on it); a single-endpoint
        client has nowhere else to send the session.

        ``payload`` selects what FRAMES batches carry (``scores``, or
        ``features`` for server-side scoring).  The server echoes it on
        STARTED and the session sends accordingly.
        """
        del key
        reply = await self._control_request(_start_message(payload))
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
        )

    async def status(self) -> dict:
        reply = await self._control_request({"type": protocol.STATUS})
        if reply["type"] != protocol.STATUS:
            raise ServeError(reply.get("error", f"unexpected reply {reply}"))
        return reply

    async def close(self) -> None:
        # Close every connection in the shared peer map (replays may
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

    It keeps every FRAMES message it sent since open.  When the session
    is lost — its connection drops, or its server says ``moved`` — it
    re-opens and re-pushes them (:meth:`_replay`).  Callers just see
    their partial or final arrive.
    """

    def __init__(
        self,
        client: TcpClient,
        session_id: str,
        events: asyncio.Queue,
        payload: str = protocol.PAYLOAD_SCORES,
    ) -> None:
        self._client = client
        self.session_id = session_id
        self._events = events
        #: Negotiated at open: which key FRAMES batches ride in.
        self.payload = payload
        #: Partial-hypothesis messages observed so far, in order.
        self.partials: list[dict] = []
        #: Every FRAMES message sent since open, in order: what a
        #: replay re-pushes.
        self._sent: list[dict] = []
        self._finishing = False
        #: When replaying gives up (event-loop time): set by the first
        #: loss after the last partial the caller got, cleared by the
        #: next partial.
        self._deadline: float | None = None
        #: The message that ended the session, once one has.
        self._ended: dict | None = None

    def _end(self, event: dict) -> None:
        self._ended = event
        self._client._sessions.pop(self.session_id, None)

    def _refuse_if_ended(self) -> None:
        if self._ended is not None:
            detail = self._ended.get("error", self._ended["type"])
            raise ServeError(
                f"session {self.session_id!r} already closed: {detail}"
            )

    async def _event(self) -> dict:
        """The next event naming the session's current id, or its
        connection's end-of-stream marker.  Whatever its earlier ids
        and connections still deliver is dropped."""
        while True:
            event = await self._events.get()
            if event is self._client.lost:
                return event
            if event.get("session") == self.session_id:
                if event["type"] in _ENDINGS:
                    self._end(event)
                return event

    async def _next_event(self, replay: bool = True) -> dict:
        """The next event for the caller.  A loss (end of stream or
        ``moved``) is replayed, or returned if ``replay`` is off."""
        while True:
            event = await self._event()
            if event is self._client.lost or event["type"] == protocol.MOVED:
                if not replay:
                    return event
                await self._replay(event)
                continue
            if event["type"] == protocol.PARTIAL:
                self.partials.append(event)
                self._deadline = None
            return event

    async def _send(self, message: dict) -> None:
        """Send on the session's connection.  A dropped connection is
        not an error here: its end-of-stream marker reaches
        :meth:`_next_event`, which replays."""
        try:
            await self._client._send(message)
        except (ServeError, OSError):
            pass

    async def _replay(self, loss: dict) -> None:
        """Re-open this session and re-push its batches.

        ``loss`` is the connection's end-of-stream marker (its server
        died; a sharded server respawns the shard on the same port) or
        ``moved`` (a rebalance dropped the session here; it names the
        shard to go to).  Either way the session's decode state is
        gone.  The session opens afresh on that endpoint; the batches
        whose partials the caller already has are re-pushed one at a
        time (the server's per-session queue is bounded) and their
        partials dropped; the rest, and a pending ``finish``, are
        re-sent as they were, so their replies reach the caller as if
        nothing had happened.  A further loss on the way starts over
        toward its endpoint, until ``RELOCATE_TIMEOUT_SECONDS`` after
        the first loss since the caller's last partial (then it raises
        :class:`ServeError`).  A lost connection without an endpoint
        raises at once.
        """
        if loss is self._client.lost and self._client.port is None:
            self._end(loss)
            raise ServeError(
                f"session {self.session_id!r} lost its connection, "
                "which has no endpoint to re-open it on"
            )
        if self._deadline is None:
            self._deadline = (
                asyncio.get_running_loop().time() + RELOCATE_TIMEOUT_SECONDS
            )
        while loss is not None:
            if loss is self._client.lost:
                host, port = self._client.host, self._client.port
            else:
                host, port = loss["host"], loss["port"]
            await self._reopen(host, port)
            loss = await self._catch_up()
        for message in self._sent[len(self.partials) :]:
            message["session"] = self.session_id
            await self._send(message)
        if self._finishing:
            await self._send(
                {"type": protocol.FINISH, "session": self.session_id}
            )

    async def _reopen(self, host: str, port: int) -> None:
        """Start a fresh session on ``host:port`` and move onto it."""
        loop = asyncio.get_running_loop()
        start = _start_message(self.payload)
        while True:
            if loop.time() >= self._deadline:
                raise ServeError(
                    f"session {self.session_id!r} lost its server at "
                    f"{host}:{port}, which did not come back within "
                    f"{RELOCATE_TIMEOUT_SECONDS:g}s"
                )
            reply = None
            try:
                client = await _dial(self._client._peers, host, port)
                reply = await client._control_request(start)
            except (OSError, ServeError):
                pass
            if reply is not None and reply["type"] == protocol.STARTED:
                break
            await asyncio.sleep(RETRY_SECONDS)
        self._client = client
        self.session_id = reply["session"]
        client._sessions[self.session_id] = self._events

    async def _catch_up(self) -> dict | None:
        """Re-push the batches whose partials were delivered, one at a
        time, dropping their partials.  Returns the loss that cut it
        short, or ``None``."""
        for message in self._sent[: len(self.partials)]:
            message["session"] = self.session_id
            while True:
                await self._send(message)
                reply = await self._event()
                if (
                    reply is self._client.lost
                    or reply["type"] == protocol.MOVED
                ):
                    return reply
                if reply["type"] == protocol.PARTIAL:
                    break
                if reply["type"] != protocol.BUSY:
                    raise ServeError(
                        reply.get("error", f"unexpected replay reply {reply}")
                    )
                await asyncio.sleep(RETRY_SECONDS)
        return None

    async def push(self, scores: np.ndarray) -> dict:
        """Send one batch and wait for its partial hypothesis.

        The batch rides in the key the session negotiated (``scores``
        or ``features``).
        """
        self._refuse_if_ended()
        message = {
            "type": protocol.FRAMES,
            "session": self.session_id,
            self.payload: protocol.matrix_to_payload(scores),
        }
        self._sent.append(message)
        await self._send(message)
        event = await self._next_event()
        if event["type"] == protocol.PARTIAL:
            return event
        if event["type"] == protocol.BUSY:
            # Not queued: forget it, the caller retries the batch.
            self._sent.pop()
            raise Busy(event.get("reason", "busy"))
        raise ServeError(event.get("error", "session ended unexpectedly"))

    async def abort(self) -> None:
        """Abandon the stream mid-utterance (no final result).

        Sends ``cancel`` and drains this session's events until the
        server's terminal ``cancelled`` acknowledgement (late partials
        in flight are drained into :attr:`partials` on the way).  A
        session that is lost already (its connection dropped, or it
        was moved) or has ended is gone: abort returns without a word.
        """
        if self._ended is not None:
            return
        await self._send({"type": protocol.CANCEL, "session": self.session_id})
        while True:
            event = await self._next_event(replay=False)
            if self._ended is not None or event["type"] in (
                protocol.ERROR,
                protocol.MOVED,
            ):
                self._client._sessions.pop(self.session_id, None)
                return

    async def finish(self) -> dict:
        """End the utterance and wait for the final result."""
        self._refuse_if_ended()
        self._finishing = True
        await self._send({"type": protocol.FINISH, "session": self.session_id})
        while True:
            event = await self._next_event()
            if event["type"] == protocol.FINAL:
                return event
            if event["type"] == protocol.ERROR:
                raise ServeError(event["error"])


class ShardedClient:
    """Route sessions across a sharded deployment's endpoints.

    The client builds the same consistent-hash ring the server uses
    (:class:`~repro.serve.shard.ShardRouter` over the endpoint count),
    so ``open(key=...)`` lands each session on its home shard without
    asking anyone.  Connections are dialed lazily per shard and all
    share one peer map — a session moved mid-stream re-opens on the
    existing connection to its new shard, and one whose shard died
    re-dials the same endpoint.
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
                return await client.open(payload=payload)
            except (OSError, ServeError):
                # Only a refused or dropped connection is worth another
                # try; a live server's error reply is final.
                live = client is not None and not client._closed
                if live or loop.time() >= deadline:
                    raise
            await asyncio.sleep(RETRY_SECONDS)

    async def close(self) -> None:
        clients = {id(c): c for c in self._peers.values()}
        for client in clients.values():
            await client._close_one()
        self._peers.clear()
