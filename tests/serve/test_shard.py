"""Sharded serving tests: router, end-to-end parity, work stealing.

A :class:`ShardedServer` packs the recognizer into one shared-memory
segment and spawns shard processes that attach it; every transcript a
shard serves must be bit-identical to a sequential streaming pass over
the bundle-quantized recognizer (shards decode the quantized segment,
so that — not the float64 parent — is the reference).  Rebalancing
moves live sessions between shards mid-stream: a moved client
re-opens its session on the shard named and replays it, and the
finals still match.  A shard
that dies or stops answering is respawned as a new generation on the
same port (the crash-recovery parity tests are ``test_chaos.py``).
"""

import asyncio
import os
import signal
import time
from time import perf_counter

import pytest

from repro.asr import DecodePool
from repro.core import DecoderConfig
from repro.serve import (
    ServeConfig,
    ServeError,
    ShardedClient,
    ShardedServer,
    ShardRouter,
    TcpClient,
    TranscriptionServer,
    protocol,
    run_load,
    shard as shard_module,
)
from repro.shm import bundle_quantize

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


pytestmark = pytest.mark.usefixtures("no_leaked_segments")


@pytest.fixture(scope="module")
def quantized_results(tiny_task, wire_scores):
    """Ground truth: a decode over the quantized graphs of the scores
    the shards receive (streamed finals equal it)."""
    am, lm = bundle_quantize(tiny_task.am, tiny_task.lm)
    with DecodePool(am, lm, config=CONFIG) as pool:
        return pool.decode_scores(wire_scores)


def make_sharded(tiny_task, shards=2, **overrides) -> ShardedServer:
    return ShardedServer(
        tiny_task.am,
        tiny_task.lm,
        decoder_config=CONFIG,
        serve_config=ServeConfig(max_sessions=8, **overrides),
        shards=shards,
    )


class TestShardRouter:
    def test_deterministic_across_instances(self):
        keys = [f"session-{i}" for i in range(200)]
        a = ShardRouter(3)
        b = ShardRouter(3)
        assert [a.shard_for(k) for k in keys] == [
            b.shard_for(k) for k in keys
        ]

    def test_spread_reaches_every_shard(self):
        keys = [f"u{i}" for i in range(200)]
        counts = ShardRouter(4).spread(keys)
        assert sum(counts) == len(keys)
        assert all(count > 0 for count in counts)
        # md5 over 64 virtual nodes per shard: no shard should own the
        # overwhelming majority of a 200-key population.
        assert max(counts) < 150

    def test_consistent_hashing_limits_remap(self):
        keys = [f"u{i}" for i in range(400)]
        two, three = ShardRouter(2), ShardRouter(3)
        moved = sum(
            1 for k in keys if two.shard_for(k) != three.shard_for(k)
        )
        # Growing 2 -> 3 shards should remap roughly 1/3 of keys; far
        # below the ~2/3 a modulo router would reshuffle.
        assert moved / len(keys) < 0.5

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, virtual_nodes=0)


class TestShardedServing:
    def test_load_matches_sequential_and_spreads(
        self, tiny_task, tiny_scores, quantized_results
    ):
        async def scenario():
            async with make_sharded(tiny_task, shards=2) as server:
                client = ShardedClient(server.endpoints)
                try:
                    report = await run_load(
                        client,
                        tiny_scores,
                        concurrency=4,
                        batch_frames=BATCH_FRAMES,
                        seed=7,
                    )
                    status = await server.status()
                    memory = await server.memory_report()
                finally:
                    await client.close()
                return report, status, memory, server.router

        report, status, memory, router = asyncio.run(scenario())

        for outcome, want in zip(report.outcomes, quantized_results):
            assert outcome.words == want.words
            assert outcome.cost == want.cost
            assert outcome.frames == want.stats.frames

        # Per-shard admissions must match the router's deterministic
        # placement of the loadgen's u<i> keys exactly.
        per_shard = router.spread(
            f"u{i}" for i in range(len(tiny_scores))
        )
        for shard_status in status["shards"]:
            shard = shard_status["shard"]
            admitted = shard_status["metrics"]["counters"].get(
                "sessions_admitted", 0
            )
            assert admitted == per_shard[shard]
        assert status["num_shards"] == 2
        assert status["active_sessions"] == 0  # drained
        assert (
            status["metrics"]["counters"]["sessions_admitted"]
            == len(tiny_scores)
        )

        # Zero-copy: no shard may privatize a meaningful fraction of
        # the shared segment (read-only views never dirty its pages).
        assert memory["shared_nbytes"] > 0
        for info in memory["shards"]:
            segment = info.get("segment")
            if segment is None:  # /proc/<pid>/smaps unavailable
                continue
            assert segment["private_bytes"] * 10 <= memory["shared_nbytes"]

    def test_endpoint_for_agrees_with_router(self, tiny_task):
        async def scenario():
            async with make_sharded(tiny_task, shards=2) as server:
                return [
                    (
                        server.endpoint_for(key),
                        server.endpoints[server.router.shard_for(key)],
                    )
                    for key in ("u0", "u1", "alpha", "beta")
                ]

        for via_server, via_router in asyncio.run(scenario()):
            assert via_server == via_router


class TestRebalance:
    def test_mid_stream_migration_is_transparent(
        self, tiny_task, tiny_scores, quantized_results
    ):
        """Load one shard, steal work onto the other, keep streaming:
        moved clients replay onto the cold shard, and every final and
        every partial sequence is the uninterrupted session's."""

        async def scenario():
            async with make_sharded(tiny_task, shards=2) as server:
                hot = [
                    key
                    for key in (f"m{i}" for i in range(100))
                    if server.router.shard_for(key) == 0
                ][:4]
                assert len(hot) == 4
                client = ShardedClient(server.endpoints)
                try:
                    sessions = [await client.open(key=key) for key in hot]
                    opened = [session.session_id for session in sessions]
                    for session, scores in zip(sessions, tiny_scores):
                        await session.push(scores[:BATCH_FRAMES])
                    moves = await server.rebalance()
                    finals = []
                    for session, scores in zip(sessions, tiny_scores):
                        for start in range(
                            BATCH_FRAMES, scores.shape[0], BATCH_FRAMES
                        ):
                            await session.push(
                                scores[start : start + BATCH_FRAMES]
                            )
                        finals.append(await session.finish())
                    status = await server.status()
                finally:
                    await client.close()
                return moves, opened, sessions, finals, status

        moves, opened, sessions, finals, status = asyncio.run(scenario())

        # 4 sessions on shard 0, none on shard 1: stealing runs until
        # the spread is within one -> exactly two moves.
        assert len(moves) == 2
        assert all(move["from"] == 0 and move["to"] == 1 for move in moves)
        assert all(session_id.startswith("sh0.0-") for session_id in opened)

        counters = status["metrics"]["counters"]
        assert counters["sessions_moved"] == len(moves)
        # Each move re-opened its session once, on the cold shard.
        assert counters["sessions_admitted"] == len(opened) + len(moves)
        moved = {move["session"] for move in moves}
        for session_id, session in zip(opened, sessions):
            shard = "sh1.0-" if session_id in moved else "sh0.0-"
            assert session.session_id.startswith(shard)

        for final, want in zip(finals, quantized_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost
            assert final["frames"] == want.stats.frames
        # Every client, moved or not, saw one partial per batch: no
        # duplicate from the replay, no gap across the move.
        for session, scores in zip(sessions, tiny_scores):
            assert [p["frames_consumed"] for p in session.partials] == list(
                range(BATCH_FRAMES, scores.shape[0], BATCH_FRAMES)
            ) + [scores.shape[0]]
        assert status["active_sessions"] == 0


async def restarted(server, timeout=30.0):
    """Wait until the supervisor has respawned a shard."""
    deadline = perf_counter() + timeout
    while server.restarts < 1:
        assert perf_counter() < deadline, "shard was not respawned"
        await asyncio.sleep(0.05)


async def exchange(host, port, message):
    """One raw request on a fresh connection, and its first reply."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(protocol.encode_message(message))
        await writer.drain()
        return protocol.decode_message(await reader.readline())
    finally:
        writer.close()


class TestStartFailure:
    def test_bad_admission_bounds_fail_before_packing(
        self, tiny_task, monkeypatch
    ):
        """The config checks its bounds where it is made: the parent
        raises before it packs a segment or forks a shard."""
        packed = []
        monkeypatch.setattr(
            shard_module, "pack_recognizer", lambda *args: packed.append(args)
        )
        with pytest.raises(ValueError, match="max_sessions"):
            ShardedServer(
                tiny_task.am,
                tiny_task.lm,
                serve_config=ServeConfig(max_sessions=0),
            )
        assert packed == []

    def test_a_shard_that_fails_to_start_takes_the_rest_down(
        self, tiny_task, monkeypatch
    ):
        """Shard 1 fails to bind (armed before the fork, as the chaos
        tests arm theirs): ``async with`` raises, and shard 0 and the
        segment are gone with it, though ``__aexit__`` never ran."""
        start = TranscriptionServer.start

        async def failing(server):
            if server.config.session_id_prefix.startswith("sh1."):
                raise OSError("injected bind failure")
            await start(server)

        monkeypatch.setattr(TranscriptionServer, "start", failing)
        server = make_sharded(tiny_task)
        segment = server.segment_name

        async def scenario():
            with pytest.raises(ServeError, match="shard 1 failed to start"):
                async with server:
                    pass

        asyncio.run(scenario())
        assert len(server._handles) == 2
        assert not any(h.process.is_alive() for h in server._handles)
        assert not os.path.exists(f"/dev/shm/{segment}")


class TestShardRespawn:
    def test_late_control_reply_marks_the_shard_dead(
        self, monkeypatch, tiny_task
    ):
        """A control request that times out leaves its reply in flight.
        The handle must not hand that late reply to the next request:
        it is marked dead, fails fast, and the supervisor replaces the
        shard."""
        monkeypatch.setattr(shard_module, "LIVENESS_PERIOD_SECONDS", 0.1)
        status_message = TranscriptionServer.status_message

        def slow_first_status(self):
            # Only shard 0's first generation, which forks from here.
            if self.config.session_id_prefix == "sh0.0-":
                time.sleep(1.5)
            return status_message(self)

        monkeypatch.setattr(
            TranscriptionServer, "status_message", slow_first_status
        )

        async def scenario():
            loop = asyncio.get_running_loop()
            async with make_sharded(tiny_task, shards=2) as server:
                handle = server._handles[0]
                with pytest.raises(ServeError, match="no reply"):
                    await loop.run_in_executor(
                        None, handle.request, "status", None, 0.5
                    )
                assert handle.dead
                with pytest.raises(ServeError, match="is dead"):
                    handle.request("status")
                await restarted(server)
                assert not handle.process.is_alive()
                return await server.status()

        status = asyncio.run(scenario())
        assert status["ok"]
        assert [s["shard"] for s in status["shards"]] == [0, 1]
        assert all(s["type"] == "status" for s in status["shards"])
        assert status["metrics"]["counters"]["shard_restarts"] == 1

    def test_session_ids_are_unique_across_respawns(
        self, monkeypatch, tiny_task, tiny_scores
    ):
        """A respawned shard is a new generation of id prefix: a late
        ``frames`` naming the dead shard's session gets ``unknown
        session``, never a recycled id's stream."""
        monkeypatch.setattr(shard_module, "LIVENESS_PERIOD_SECONDS", 0.1)

        async def scenario():
            async with make_sharded(tiny_task, shards=1) as server:
                ((host, port),) = server.endpoints
                first = await TcpClient.connect(host, port)
                try:
                    old = await first.open()
                    await old.push(tiny_scores[0][:BATCH_FRAMES])
                    os.kill(server._handles[0].process.pid, signal.SIGKILL)
                    await restarted(server)
                    assert server.endpoints == [(host, port)]
                    framed = await exchange(
                        host,
                        port,
                        {
                            "type": "frames",
                            "session": old.session_id,
                            "scores": [[0.0]],
                        },
                    )
                    second = await TcpClient.connect(host, port)
                    try:
                        fresh = await second.open()
                    finally:
                        await second.close()
                finally:
                    await first.close()
                return old.session_id, framed, fresh.session_id

        old_id, framed, fresh_id = asyncio.run(scenario())
        assert old_id == "sh0.0-1"
        assert fresh_id == "sh0.1-1"
        assert framed["type"] == "error"
        assert "unknown session" in framed["error"]

    def test_redial_replaces_a_dropped_connection(self, tiny_task):
        """``ShardedClient`` re-dials an endpoint whose connection
        dropped and keeps the new connection, so every later open
        shares it and ``close()`` closes it."""

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(port=0),
            )
            async with server:
                endpoint = (server.config.host, server.port)
                client = ShardedClient([endpoint])
                dropped = await client._client_for(endpoint)
                dropped._writer.transport.abort()
                await dropped._reader_task
                second = await client._client_for(endpoint)
                third = await client._client_for(endpoint)
                session = await client.open()
                await session.abort()
                await client.close()
            return dropped, second, third

        dropped, second, third = asyncio.run(scenario())
        assert second is third and second is not dropped
        assert second._closed and second._writer.is_closing()
