"""Sharded serving: N shard processes over one shared recognizer.

:class:`ShardedServer` scales the streaming service across processes
without multiplying its memory: the parent packs the recognizer into
one shared-memory segment (:func:`repro.shm.pack_recognizer`) and
spawns ``shards`` worker processes, each of which *attaches* the
segment and runs a full :class:`~repro.serve.server.TranscriptionServer`
(in-process fused engine, own TCP port) against zero-copy views of it.
That is the paper's shared-dataset / small-channel-state split at
process scale: the big tables exist once, each shard holds only its
sessions' channel state.

Clients route sessions with :class:`ShardRouter` — a consistent-hash
ring (md5, virtual nodes) over the shard indices, so the mapping is
stable, uniform, and identical in every process that builds the same
router.  A hot shard hands sessions to a cold one
(:meth:`ShardedServer.rebalance`) without shipping any state: it drops
the session and sends its client ``moved``, naming the cold shard, and
the client re-opens the session there by replaying the batches it sent
— the same path that recovers a session from a dead shard, below.
Decoding is deterministic, so transcripts stay bit-identical.

The parent talks to shard processes over control pipes (status, move,
meminfo, ping, stop); the data plane is ordinary TCP straight to each
shard — the parent is not a proxy, so adding shards adds serving
capacity without a single-process bottleneck in front.

The parent also supervises: every ``LIVENESS_PERIOD_SECONDS`` it pings
each shard over its control pipe, and a shard that has exited, or
whose reply does not arrive within ``LIVENESS_TIMEOUT_SECONDS`` (its
event loop is stuck, say inside a push), is killed and respawned on
the same port against the same segment.  The shard's sessions die
with it; their clients re-open them on the respawned shard and
re-push what they sent (:class:`~repro.serve.client.TcpSession`), so
finals stay bit-identical with no checkpoint on the server.  Each
respawn is a new *generation* in the shard's session-id prefix
(``sh0.1-``), so an id from a dead shard never names a live session.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import multiprocessing
import threading
from dataclasses import replace

from repro.am.graph import AmGraph
from repro.am.scorer import AcousticScorer
from repro.core.decoder import DecoderConfig, OnTheFlyDecoder
from repro.lm.graph import LmGraph
from repro.serve.engine import InlineEngine
from repro.serve.protocol import ServeError
from repro.serve.server import ServeConfig, TranscriptionServer
from repro.shm import attach_recognizer, pack_recognizer, process_memory

#: Virtual nodes per shard on the hash ring; enough that keys spread
#: within a few percent of uniform at small shard counts.
DEFAULT_VIRTUAL_NODES = 64

#: Parent-side deadline for one control-pipe request.
CONTROL_TIMEOUT_SECONDS = 60.0

#: How often the parent checks that every shard is alive.
LIVENESS_PERIOD_SECONDS = 0.5

#: How long a shard may take to answer a liveness ping before it is
#: killed and respawned.  A ping is answered on the shard's event loop,
#: so this also bounds how long one engine call may hold that loop.
LIVENESS_TIMEOUT_SECONDS = 10.0


def _hash64(data: str) -> int:
    """Stable 64-bit hash (md5 prefix) — never Python's salted hash()."""
    return int.from_bytes(
        hashlib.md5(data.encode("utf-8")).digest()[:8], "big"
    )


class ShardRouter:
    """Consistent-hash ring mapping session keys to shard indices.

    Every process that builds ``ShardRouter(n)`` gets the identical
    mapping (the ring hashes fixed strings), so clients and servers
    agree on placement without coordination.  Consistent hashing keeps
    the mapping stable under resharding: growing from N to N+1 shards
    remaps only ~1/(N+1) of the keyspace instead of nearly all of it.
    """

    def __init__(
        self, shards: int, virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for node in range(virtual_nodes):
                points.append((_hash64(f"shard-{shard}-vn-{node}"), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key`` (first point clockwise)."""
        index = bisect.bisect_right(self._hashes, _hash64(key))
        return self._points[index % len(self._points)][1]

    def spread(self, keys) -> list[int]:
        """Key count per shard — uniformity check for tests/benches."""
        counts = [0] * self.shards
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts


# -- shard worker process ---------------------------------------------------


def _shard_main(conn, segment, decoder_config, serve_config, index):
    """One shard process: attach the segment, serve TCP, obey the pipe.

    ``serve_config`` carries the shard's own port (0 on first spawn)
    and session-id prefix.
    """
    attached = attach_recognizer(segment)
    try:
        decoder = OnTheFlyDecoder(
            attached.am, attached.lm, decoder_config, tables=attached.tables
        )
        asyncio.run(
            _shard_serve(
                conn, decoder, attached.scorer, serve_config, index, segment
            )
        )
    finally:
        attached.close()
        conn.close()


async def _shard_serve(conn, decoder, scorer, serve_config, index, segment):
    engine = InlineEngine(
        decoder=decoder,
        max_fused_sessions=serve_config.max_sessions,
    )
    server = TranscriptionServer(
        serve_config=serve_config, engine=engine, scorer=scorer
    )
    try:
        await server.start()
    except OSError as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    conn.send(("ready", server.port))
    try:
        await _control_loop(server, conn, index, segment)
    finally:
        await server.stop(drain=True)


async def _control_loop(server, conn, index, segment):
    """Serve parent control requests on the shard's own event loop.

    The blocking pipe read runs in a worker thread; the handlers run on
    the loop, the only thread that may touch the scheduler (``move``
    changes its session table).
    """
    loop = asyncio.get_running_loop()
    while True:
        try:
            command, payload = await loop.run_in_executor(None, conn.recv)
        except (EOFError, OSError):
            return
        try:
            if command == "stop":
                conn.send(("ok", None))
                return
            if command == "ping":
                conn.send(("ok", None))
            elif command == "status":
                status = server.status_message()
                status["shard"] = index
                conn.send(("ok", status))
            elif command == "move":
                conn.send(("ok", server.scheduler.move(*payload)))
            elif command == "meminfo":
                info = process_memory(segment=segment)
                info["shard"] = index
                info["sessions"] = server.scheduler.active_sessions
                conn.send(("ok", info))
            else:
                conn.send(("err", f"unknown command {command!r}"))
        except Exception as exc:  # surfaced parent-side, loop survives
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


class _ShardHandle:
    """Parent-side handle: process + control pipe + endpoint.

    ``port`` is ``None`` on a shard's first spawn (it binds an
    ephemeral port) and the previous occupant's port on a respawn;
    ``generation`` counts the respawns of shard ``index``.
    """

    def __init__(
        self,
        ctx,
        segment,
        decoder_config,
        serve_config,
        index,
        generation=0,
        port=None,
    ):
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.lock = threading.Lock()
        self.index = index
        self.generation = generation
        self.host = serve_config.host
        self.port: int | None = port
        #: Set the moment a request fails structurally (EOF, broken
        #: pipe, no reply in time): a late reply would be read as the
        #: next request's, so every later request fails fast until the
        #: supervisor replaces this shard.
        self.dead = False
        config = replace(
            serve_config,
            port=port or 0,
            session_id_prefix=f"sh{index}.{generation}-",
        )
        self.process = ctx.Process(
            target=_shard_main,
            args=(child_conn, segment, decoder_config, config, index),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def wait_ready(self, timeout: float | None = None) -> None:
        timeout = CONTROL_TIMEOUT_SECONDS if timeout is None else timeout
        with self.lock:
            try:
                if not self.conn.poll(timeout):
                    self.dead = True
                    raise ServeError(
                        f"shard {self.index} did not report ready within "
                        f"{timeout:g}s"
                    )
                tag, value = self.conn.recv()
            except (EOFError, OSError) as exc:  # it died starting up
                tag, value = "error", type(exc).__name__
        if tag != "ready":
            self.dead = True
            raise ServeError(f"shard {self.index} failed to start: {value}")
        self.port = value

    def request(
        self,
        command: str,
        payload=None,
        timeout: float | None = None,
    ):
        timeout = CONTROL_TIMEOUT_SECONDS if timeout is None else timeout
        with self.lock:
            if self.dead:
                raise ServeError(f"shard {self.index} is dead")
            try:
                self.conn.send((command, payload))
                if not self.conn.poll(timeout):
                    self.dead = True
                    raise ServeError(
                        f"shard {self.index} gave no reply to "
                        f"{command!r} within {timeout:g}s"
                    )
                status, value = self.conn.recv()
            except (EOFError, OSError) as exc:
                self.dead = True
                raise ServeError(
                    f"shard {self.index} control pipe failed during "
                    f"{command!r}: {type(exc).__name__}"
                ) from exc
        if status != "ok":
            raise ServeError(f"shard {self.index}: {value}")
        return value

    def shutdown(self, join_timeout: float = 10.0) -> None:
        """Stop the shard: asked over the pipe if it still answers,
        killed if it does not stop in ``join_timeout``."""
        try:
            self.request("stop")
        except ServeError:
            pass
        self.process.join(timeout=0 if self.dead else join_timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=join_timeout)
        with self.lock:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class ShardedServer:
    """N shard processes serving one shared-memory recognizer.

    Construction packs; :meth:`start` spawns the shards, waits for
    their ports and starts the supervisor task on the running event
    loop.  Clients connect straight to ``endpoints`` (route by
    :attr:`router`), or through
    :class:`~repro.serve.client.ShardedClient` which does both.  A
    respawned shard keeps its endpoint, so the list never changes.
    """

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        scorer: AcousticScorer | None = None,
        decoder_config: DecoderConfig | None = None,
        serve_config: ServeConfig | None = None,
        shards: int = 2,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = serve_config or ServeConfig()
        self.decoder_config = decoder_config or DecoderConfig()
        self.shards = shards
        self.router = ShardRouter(shards, virtual_nodes=virtual_nodes)
        self._shm = pack_recognizer(am, lm, scorer)
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - spawn-only platforms
            self._ctx = multiprocessing.get_context("spawn")
        self._handles: list[_ShardHandle] = []
        self._supervisor: asyncio.Task | None = None
        #: Shards respawned since start (reported as the
        #: ``shard_restarts`` counter of :meth:`status`).
        self.restarts = 0
        self._started = False
        self._stopped = False

    @property
    def segment_name(self) -> str:
        return self._shm.segment_name

    @property
    def shared_nbytes(self) -> int:
        return self._shm.nbytes

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """``(host, port)`` per shard, in shard-index order."""
        return [(handle.host, handle.port) for handle in self._handles]

    def endpoint_for(self, key: str) -> tuple[str, int]:
        return self.endpoints[self.router.shard_for(key)]

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shards and wait until every one is ready.

        A start that fails stops what it spawned and unlinks the
        segment before it re-raises (``async with`` never reaches
        ``__aexit__`` then): no shard and no segment outlives it.
        """
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        try:
            for index in range(self.shards):
                self._handles.append(self._spawn(index))
            await asyncio.gather(
                *(
                    loop.run_in_executor(None, handle.wait_ready)
                    for handle in self._handles
                )
            )
        except BaseException:
            await self.stop()
            raise
        self._supervisor = loop.create_task(
            self._supervise(), name="shard-supervisor"
        )

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        loop = asyncio.get_running_loop()
        try:
            if self._supervisor is not None:
                self._supervisor.cancel()
                try:
                    await self._supervisor
                except asyncio.CancelledError:
                    pass
        finally:
            # Even if supervision crashed: no shard outlives the server.
            await asyncio.gather(
                *(
                    loop.run_in_executor(None, handle.shutdown)
                    for handle in self._handles
                )
            )
            self._shm.unlink()

    async def __aenter__(self) -> "ShardedServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- supervision --------------------------------------------------------

    def _spawn(self, index: int, generation: int = 0, port=None):
        return _ShardHandle(
            self._ctx,
            self._shm.segment_name,
            self.decoder_config,
            self.config,
            index,
            generation,
            port,
        )

    async def _supervise(self) -> None:
        """Every period, check all shards at once."""
        while True:
            await asyncio.sleep(LIVENESS_PERIOD_SECONDS)
            await asyncio.gather(
                *(self._check(index) for index in range(self.shards))
            )

    async def _check(self, index: int) -> None:
        """Ping shard ``index``; respawn it if it died or did not
        answer in time."""
        handle = self._handles[index]
        if handle.alive:
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None,
                    handle.request,
                    "ping",
                    None,
                    LIVENESS_TIMEOUT_SECONDS,
                )
            except ServeError:
                pass  # the handle marked itself dead
        if not handle.alive:
            await self._respawn(index)

    async def _respawn(self, index: int) -> None:
        """Replace shard ``index`` with a new generation on its port.

        The new handle is published only once it is ready, so control
        requests meanwhile fail fast on the dead one instead of reading
        the new shard's ``ready`` line as their reply.  A respawn that
        fails to come up is retried on the next supervisor period.
        """
        loop = asyncio.get_running_loop()
        dead = self._handles[index]
        dead.dead = True
        await loop.run_in_executor(None, dead.shutdown)
        handle = self._spawn(index, dead.generation + 1, dead.port)
        try:
            await loop.run_in_executor(None, handle.wait_ready)
        except (ServeError, asyncio.CancelledError) as exc:
            # Not up, or the server is stopping: either way this
            # process must not outlive the attempt.
            handle.dead = True
            handle.process.kill()
            handle.process.join()
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        self._handles[index] = handle
        self.restarts += 1

    # -- control plane ------------------------------------------------------

    async def _request(self, handle: _ShardHandle, command, payload=None):
        return await asyncio.get_running_loop().run_in_executor(
            None, handle.request, command, payload
        )

    async def _shard_status(self, index: int, handle: _ShardHandle) -> dict:
        try:
            return await self._request(handle, "status")
        except ServeError as exc:  # dead: the supervisor replaces it
            return {
                "type": "status",
                "ok": False,
                "shard": index,
                "error": str(exc),
            }

    async def status(self) -> dict:
        """One status view: per-shard statuses + rolled-up metrics.

        Counters and gauges sum across shards (``active_sessions`` is
        the cluster total), plus the parent's ``shard_restarts``;
        histograms don't merge exactly from summaries, so latency
        shapes stay per-shard under ``shards``.  A shard that cannot
        answer (dead, or being respawned) reports ``ok: False``.
        """
        statuses = await asyncio.gather(
            *(
                self._shard_status(index, handle)
                for index, handle in enumerate(self._handles)
            )
        )
        counters: dict[str, float] = {"shard_restarts": self.restarts}
        gauges: dict[str, float] = {}
        for status in statuses:
            metrics = status.get("metrics", {})
            for name, value in metrics.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in metrics.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0) + value
        return {
            "type": "status",
            "ok": all(s.get("ok") for s in statuses),
            "shards": list(statuses),
            "num_shards": len(statuses),
            "active_sessions": sum(
                s.get("active_sessions", 0) for s in statuses
            ),
            "metrics": {
                "counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
            },
        }

    async def memory_report(self) -> dict:
        """Segment size plus each shard's RSS/USS and segment mapping."""
        infos = await asyncio.gather(
            *(self._request(h, "meminfo") for h in self._handles)
        )
        return {
            "segment": self._shm.segment_name,
            "shared_nbytes": self._shm.nbytes,
            "shards": list(infos),
        }

    # -- work stealing ------------------------------------------------------

    async def rebalance(self, max_moves: int | None = None) -> list[dict]:
        """Move sessions from the hottest shard to the coldest.

        Deterministic work stealing: while the hottest shard holds at
        least two sessions more than the coldest, it is told to ``move``
        one toward the coldest (:meth:`~repro.serve.scheduler.
        Scheduler.move`): the session is dropped there and its client,
        told ``moved``, re-opens it on the coldest shard by replaying
        what it sent.  Returns the moves performed.
        """
        counts = [
            (await self._request(handle, "status")).get(
                "active_sessions", 0
            )
            for handle in self._handles
        ]
        moves: list[dict] = []
        while max_moves is None or len(moves) < max_moves:
            hot = max(range(len(counts)), key=lambda i: (counts[i], -i))
            cold = min(range(len(counts)), key=lambda i: (counts[i], i))
            if counts[hot] - counts[cold] < 2:
                break
            target = self._handles[cold]
            session_id = await self._request(
                self._handles[hot], "move", (target.host, target.port, cold)
            )
            if session_id is None:
                break
            counts[hot] -= 1
            counts[cold] += 1
            moves.append(
                {"session": session_id, "from": hot, "to": cold}
            )
        return moves
