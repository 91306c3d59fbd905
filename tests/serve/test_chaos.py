"""Fault-tolerance tests: shard death, hangs and decoder faults.

The acceptance criterion of the one process architecture: a
:class:`ShardedServer` whose shard 0 dies mid-utterance respawns it on
the same port, the shard's clients re-open their sessions there and
re-push what they sent, and every final — and every delivered partial
sequence — is bit-identical to an uninterrupted decode of the
bundle-quantized recognizer.  The faults are armed by the tests
themselves: :class:`InlineEngine` is patched in this process before the
shards fork, so the shard inherits the patch, and the fault fires on a
counted push of the first generation of shard 0 only (its session ids
start ``sh0.0-``; the respawn's start ``sh0.1-``).  No sleeps wait for
a crash: the fault fires where it is counted, so the same sessions
replay from the same points on every run.
"""

import asyncio
import os
import signal
import time
from time import perf_counter

import pytest

from repro.asr.streaming import StreamingSession, transcribe_streams
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import (
    InlineEngine,
    ServeConfig,
    ServeError,
    ShardedClient,
    ShardedServer,
    TcpClient,
    TranscriptionServer,
    client as client_module,
    shard as shard_module,
)
from repro.serve.loadgen import run_load
from repro.shm import bundle_quantize

from tests.serve.conftest import repro_segments

CONFIG = DecoderConfig(beam=14.0)
BATCH = 8
POISON = 1e30

pytestmark = pytest.mark.usefixtures("no_leaked_segments")


def batches(matrix):
    return [
        matrix[start : start + BATCH]
        for start in range(0, matrix.shape[0], BATCH)
    ]


def wire_partial(message):
    return (
        message["words"],
        message["cost"],
        message["frames_consumed"],
        message["active_tokens"],
    )


@pytest.fixture(scope="module")
def reference(tiny_task, tiny_scores):
    """Per utterance: the partial sequence and the final of a solo
    streaming session over the bundle-quantized recognizer — what the
    shards serve, so what every session must equal through a crash."""
    decoder = OnTheFlyDecoder(
        *bundle_quantize(tiny_task.am, tiny_task.lm), CONFIG
    )
    out = []
    for scores in tiny_scores:
        session = StreamingSession(decoder, lookup=decoder.lookup.fork())
        partials = [
            (list(p.words), p.cost, p.frames_consumed, p.active_tokens)
            for p in map(session.push, batches(scores))
        ]
        out.append((partials, session.finish()))
    return out


@pytest.fixture(scope="module")
def inline_reference(tiny_task, tiny_scores):
    """Sequential parent-graph decode (the in-process engine's truth)."""
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
    return transcribe_streams(decoder, tiny_scores, BATCH)


def make_sharded(tiny_task, shards=2) -> ShardedServer:
    return ShardedServer(
        tiny_task.am,
        tiny_task.lm,
        decoder_config=CONFIG,
        serve_config=ServeConfig(max_sessions=8),
        shards=shards,
    )


def arm_shard0(monkeypatch, fault, at_push, after=False):
    """Run ``fault`` in shard 0's first generation at its ``at_push``-th
    decoded batch (counted over ``push`` and ``push_many``): before the
    batch is decoded, or ``after`` it is decoded but before its partial
    is sent.  Patch before the server starts: the shards fork from this
    process."""
    count = 0
    push, push_many = InlineEngine.push, InlineEngine.push_many

    def counted(items, decode):
        nonlocal count
        armed = sum(sid.startswith("sh0.0-") for sid, _ in items)
        hit = count < at_push <= count + armed
        count += armed
        if hit and not after:
            fault()
        result = decode()
        if hit and after:
            fault()
        return result

    monkeypatch.setattr(
        InlineEngine,
        "push",
        lambda self, sid, scores: counted(
            [(sid, scores)], lambda: push(self, sid, scores)
        ),
    )
    monkeypatch.setattr(
        InlineEngine,
        "push_many",
        lambda self, items: counted(items, lambda: push_many(self, items)),
    )


def die():
    os._exit(1)


def keys_on(server, shard, count):
    """``count`` session keys the router places on ``shard``."""
    keys = [
        key
        for key in (f"k{i}" for i in range(200))
        if server.router.shard_for(key) == shard
    ]
    return keys[:count]


async def stream_each(client, keys, tiny_scores, after_first=None):
    """Open one session per key, push every session's first batch,
    call ``after_first``, then stream the rest session by session.
    Returns the sessions and their finals."""
    sessions = [await client.open(key=key) for key in keys]
    for session, scores in zip(sessions, tiny_scores):
        await session.push(batches(scores)[0])
    if after_first is not None:
        after_first()
    finals = []
    for session, scores in zip(sessions, tiny_scores):
        for batch in batches(scores)[1:]:
            await session.push(batch)
        finals.append(await session.finish())
    return sessions, finals


def assert_uninterrupted(sessions, finals, reference):
    """Finals bit-identical; each session's delivered partials are the
    uninterrupted sequence — no duplicate from the replay, no gap."""
    for index, (session, final) in enumerate(zip(sessions, finals)):
        partials, result = reference[index]
        assert final["words"] == result.words
        assert final["cost"] == result.cost
        assert final["frames"] == result.stats.frames
        assert [wire_partial(p) for p in session.partials] == partials


def fast_supervision(monkeypatch, liveness_timeout=10.0):
    monkeypatch.setattr(shard_module, "LIVENESS_PERIOD_SECONDS", 0.1)
    monkeypatch.setattr(
        shard_module, "LIVENESS_TIMEOUT_SECONDS", liveness_timeout
    )


class TestWorkerCrashRecovery:
    """A shard process dying or hanging mid-utterance, its sessions
    driven one by one through a :class:`ShardedClient`."""

    def scenario(self, tiny_task, tiny_scores, after_first=None):
        async def run():
            async with make_sharded(tiny_task) as server:
                client = ShardedClient(server.endpoints)
                try:
                    keys = keys_on(server, 0, 4)
                    sessions, finals = await stream_each(
                        client,
                        keys,
                        tiny_scores,
                        None if after_first is None
                        else lambda: after_first(server),
                    )
                    status = await server.status()
                finally:
                    await client.close()
                return sessions, finals, status

        return asyncio.run(run())

    def test_sigkill_mid_utterance_is_bit_identical(
        self, monkeypatch, tiny_task, tiny_scores, reference
    ):
        """SIGKILL shard 0 while its four sessions are mid-utterance:
        all four finish, bit-exact, on the respawned shard."""
        fast_supervision(monkeypatch)

        def kill(server):
            os.kill(server._handles[0].process.pid, signal.SIGKILL)

        sessions, finals, status = self.scenario(
            tiny_task, tiny_scores, after_first=kill
        )
        assert_uninterrupted(sessions, finals, reference)
        assert status["ok"]
        assert status["metrics"]["counters"]["shard_restarts"] >= 1
        assert all(s.session_id.startswith("sh0.1-") for s in sessions)

    def test_die_chaos_plan_recovers(
        self, monkeypatch, tiny_task, tiny_scores, reference
    ):
        """``os._exit`` inside a push, before it decodes or replies."""
        fast_supervision(monkeypatch)
        arm_shard0(monkeypatch, die, at_push=6)
        sessions, finals, status = self.scenario(tiny_task, tiny_scores)
        assert_uninterrupted(sessions, finals, reference)
        assert status["metrics"]["counters"]["shard_restarts"] >= 1

    def test_hang_is_bounded_by_request_timeout(
        self, monkeypatch, tiny_task, tiny_scores, reference
    ):
        """A shard stuck inside a push misses its liveness ping (a
        control request with a timeout), is killed and respawned; the
        stuck push returns long before the hang would have ended."""
        fast_supervision(monkeypatch, liveness_timeout=1.0)
        arm_shard0(monkeypatch, lambda: time.sleep(120.0), at_push=2)

        async def run():
            async with make_sharded(tiny_task) as server:
                client = ShardedClient(server.endpoints)
                try:
                    (key,) = keys_on(server, 0, 1)
                    session = await client.open(key=key)
                    plan = batches(tiny_scores[0])
                    await session.push(plan[0])
                    hung = perf_counter()
                    await session.push(plan[1])
                    elapsed = perf_counter() - hung
                    for batch in plan[2:]:
                        await session.push(batch)
                    final = await session.finish()
                    status = await server.status()
                finally:
                    await client.close()
                return session, final, elapsed, status

        session, final, elapsed, status = asyncio.run(run())
        # Liveness bound + respawn + replay, nowhere near the 120 s the
        # shard would have slept.
        assert elapsed < 30.0
        assert_uninterrupted([session], [final], reference)
        assert status["metrics"]["counters"]["shard_restarts"] >= 1

    def test_dropped_reply_replays_exactly_once(
        self, monkeypatch, tiny_task, tiny_scores, reference
    ):
        """The shard decodes a push and dies before its partial goes
        out.  The client replays from its own copy of the batches, so
        the partial arrives exactly once: a duplicate or a gap would
        show in the delivered sequence."""
        fast_supervision(monkeypatch)
        arm_shard0(monkeypatch, die, at_push=7, after=True)
        sessions, finals, status = self.scenario(tiny_task, tiny_scores)
        assert_uninterrupted(sessions, finals, reference)
        assert status["metrics"]["counters"]["shard_restarts"] >= 1

    def test_injected_decoder_error_is_not_transient(
        self, monkeypatch, tiny_task, tiny_scores, reference
    ):
        """A decoder exception is the application's bug, not the
        infrastructure's: it fails its own session (its fused group
        neighbours are replayed one by one and finish), and no shard
        restarts."""
        fast_supervision(monkeypatch)
        push, push_many = InlineEngine.push, InlineEngine.push_many

        def check(scores):
            if scores[0, 0] == POISON:
                raise RuntimeError("injected decoder fault")

        def poisoned_push(self, sid, scores):
            check(scores)
            return push(self, sid, scores)

        def poisoned_push_many(self, items):
            for _, scores in items:
                check(scores)
            return push_many(self, items)

        monkeypatch.setattr(InlineEngine, "push", poisoned_push)
        monkeypatch.setattr(InlineEngine, "push_many", poisoned_push_many)
        victim = 1

        async def stream(client, key, index):
            session = await client.open(key=key)
            for number, batch in enumerate(batches(tiny_scores[index])):
                if index == victim and number == 1:
                    batch = batch.copy()
                    batch[0, 0] = POISON
                await session.push(batch)
            return session, await session.finish()

        async def run():
            async with make_sharded(tiny_task) as server:
                client = ShardedClient(server.endpoints)
                try:
                    keys = keys_on(server, 0, 3)
                    outcomes = await asyncio.gather(
                        *(
                            stream(client, key, index)
                            for index, key in enumerate(keys)
                        ),
                        return_exceptions=True,
                    )
                    status = await server.status()
                finally:
                    await client.close()
                return outcomes, status

        outcomes, status = asyncio.run(run())
        assert isinstance(outcomes[victim], ServeError)
        assert "injected decoder fault" in str(outcomes[victim])
        survivors = [o for i, o in enumerate(outcomes) if i != victim]
        sessions = [session for session, _ in survivors]
        finals = [final for _, final in survivors]
        assert_uninterrupted(
            sessions,
            finals,
            [r for i, r in enumerate(reference) if i != victim],
        )
        counters = status["metrics"]["counters"]
        assert counters["shard_restarts"] == 0
        assert counters["sessions_failed"] == 1


class RecordingClient:
    """A client wrapper that keeps every session it opened, by key."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.sessions = {}

    async def open(self, key=None, **kwargs):
        session = await self.inner.open(key=key, **kwargs)
        self.sessions[key] = session
        return session


@pytest.fixture(scope="module")
def served_worker_kill(tiny_task, tiny_scores):
    """Seeded TCP load (4 concurrent sessions) through a
    :class:`ShardedClient` into two shards whose shard 0 dies
    (``os._exit``) on its 8th push, mid-utterance for the sessions on
    it.  Returns the load report, the sessions by key, the cluster
    status and memory report after the load, and the segment name."""

    async def scenario():
        server = make_sharded(tiny_task)
        async with server:
            client = RecordingClient(ShardedClient(server.endpoints))
            try:
                report = await run_load(
                    client,
                    tiny_scores,
                    concurrency=4,
                    batch_frames=BATCH,
                    seed=1234,
                )
            finally:
                await client.inner.close()
            status = await server.status()
            memory = await server.memory_report()
        return report, client.sessions, status, memory, server.segment_name

    with pytest.MonkeyPatch.context() as monkeypatch:
        fast_supervision(monkeypatch)
        arm_shard0(monkeypatch, die, at_push=8)
        return asyncio.run(scenario())


class TestServedWorkerKill:
    """A shard death under concurrent TCP load: the scheduler, the
    transport, the supervisor and the clients' replay together."""

    def test_every_final_matches_the_serial_pool(
        self, served_worker_kill, tiny_scores, reference
    ):
        report, sessions, status, _, _ = served_worker_kill
        assert [o.index for o in report.outcomes] == list(
            range(len(tiny_scores))
        )
        for outcome, (_, want) in zip(report.outcomes, reference):
            assert outcome.words == want.words
            assert outcome.cost == want.cost
            assert outcome.frames == want.stats.frames
        assert status["ok"]
        assert status["metrics"]["counters"]["shard_restarts"] >= 1
        # The fault really struck mid-utterance: some session replayed
        # onto the respawned shard.
        assert any(
            s.session_id.startswith("sh0.1-") for s in sessions.values()
        )

    def test_delivered_partials_have_no_duplicates_or_gaps(
        self, served_worker_kill, reference
    ):
        _, sessions, _, _, _ = served_worker_kill
        for index, (partials, _) in enumerate(reference):
            session = sessions[f"u{index}"]
            assert [wire_partial(p) for p in session.partials] == partials

    def test_workers_map_the_segment_without_copying(
        self, served_worker_kill
    ):
        """Every live shard, the respawned one included, privatizes
        under 10 % of the shared recognizer segment (read-only views
        never dirty its pages)."""
        _, _, _, memory, _ = served_worker_kill
        assert memory["shared_nbytes"] > 0
        assert sorted(info["shard"] for info in memory["shards"]) == [0, 1]
        segments = [info.get("segment") for info in memory["shards"]]
        if any(segment is None for segment in segments):
            pytest.skip("/proc/<pid>/smaps unavailable")
        for segment in segments:
            assert segment["private_bytes"] * 10 <= memory["shared_nbytes"]

    def test_segment_is_unlinked_after_stop(self, served_worker_kill):
        *_, segment = served_worker_kill
        assert segment not in repro_segments()


class TestEngineFaultPaths:
    def test_cancel_of_dead_workers_session_is_silent(
        self, monkeypatch, tiny_task, tiny_scores
    ):
        """Aborting a session whose shard just died never raises — the
        caller is abandoning it either way — and stop() afterwards is
        clean."""
        fast_supervision(monkeypatch)

        async def run():
            async with make_sharded(tiny_task) as server:
                client = ShardedClient(server.endpoints)
                try:
                    (key,) = keys_on(server, 0, 1)
                    session = await client.open(key=key)
                    await session.push(batches(tiny_scores[0])[0])
                    os.kill(server._handles[0].process.pid, signal.SIGKILL)
                    await session.abort()  # must not raise
                finally:
                    await client.close()

        asyncio.run(run())

    def test_unrecovered_server_fails_the_session_in_bounded_time(
        self, monkeypatch, tiny_task, tiny_scores
    ):
        """A session whose server never comes back raises ServeError
        once RELOCATE_TIMEOUT_SECONDS has passed, instead of hanging."""
        monkeypatch.setattr(shard_module, "LIVENESS_PERIOD_SECONDS", 3600.0)
        monkeypatch.setattr(client_module, "RELOCATE_TIMEOUT_SECONDS", 1.0)

        async def run():
            async with make_sharded(tiny_task, shards=1) as server:
                client = ShardedClient(server.endpoints)
                try:
                    session = await client.open()
                    plan = batches(tiny_scores[0])
                    await session.push(plan[0])
                    os.kill(server._handles[0].process.pid, signal.SIGKILL)
                    lost = perf_counter()
                    with pytest.raises(ServeError, match="did not come back"):
                        await session.push(plan[1])
                    return perf_counter() - lost
                finally:
                    await client.close()

        elapsed = asyncio.run(run())
        assert 1.0 <= elapsed < 5.0


class TestSchedulerResilience:
    def test_deadline_bounds_a_stuck_engine_call(
        self, monkeypatch, tiny_task, tiny_scores, reference
    ):
        """An engine call that outlives the liveness deadline stalls
        only its own shard, and only until the parent kills it: the two
        sessions on the stuck shard finish on the respawn, the session
        on the other shard is never moved, and every final is
        bit-identical."""
        fast_supervision(monkeypatch, liveness_timeout=2.0)
        arm_shard0(monkeypatch, lambda: time.sleep(120.0), at_push=3)

        async def stream(client, key, index):
            session = await client.open(key=key)
            for batch in batches(tiny_scores[index]):
                await session.push(batch)
            return session, await session.finish()

        async def run():
            async with make_sharded(tiny_task) as server:
                client = ShardedClient(server.endpoints)
                try:
                    keys = keys_on(server, 0, 2) + keys_on(server, 1, 1)
                    started = perf_counter()
                    outcomes = await asyncio.gather(
                        *(
                            stream(client, key, index)
                            for index, key in enumerate(keys)
                        )
                    )
                    elapsed = perf_counter() - started
                    status = await server.status()
                finally:
                    await client.close()
                return outcomes, elapsed, status

        outcomes, elapsed, status = asyncio.run(run())
        # Liveness bound + respawn + replay, nowhere near the 120 s the
        # stuck call would have taken.
        assert elapsed < 30.0
        sessions = [session for session, _ in outcomes]
        finals = [final for _, final in outcomes]
        assert_uninterrupted(sessions, finals, reference)
        assert all(s.session_id.startswith("sh0.1-") for s in sessions[:2])
        assert sessions[2].session_id.startswith("sh1.0-")
        assert status["metrics"]["counters"]["shard_restarts"] >= 1


class TestLoadgenAborts:
    def test_abort_fraction_exercises_cancellation(
        self, tiny_task, tiny_scores, inline_reference
    ):
        """A seeded fraction of sessions vanish mid-stream; survivors
        still transcribe bit-identically and the server counts every
        cancellation."""

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(max_sessions=8),
            )
            async with server:
                report = await run_load(
                    server.connect_local(),
                    tiny_scores,
                    concurrency=4,
                    batch_frames=BATCH,
                    seed=7,
                    abort_fraction=0.5,
                )
                snapshot = server.metrics.snapshot()
            return report, snapshot

        report, snapshot = asyncio.run(scenario())
        assert report.aborted > 0
        assert report.aborted + len(report.outcomes) == len(tiny_scores)
        for outcome in report.outcomes:
            want = inline_reference[outcome.index]
            assert outcome.words == want.words
            assert outcome.cost == want.cost
        assert (
            snapshot["counters"]["sessions_cancelled"] == report.aborted
        )

    def test_abort_plan_is_seed_deterministic(self, tiny_scores):
        """Same seed, same aborters, same abort points — and seed=None
        with the knob off still means nothing aborts."""
        import random

        def plan(seed, fraction):
            rng = random.Random(seed + 1)
            out = {}
            for index, matrix in enumerate(tiny_scores):
                if rng.random() >= fraction:
                    continue
                batches = max(1, -(-matrix.shape[0] // BATCH))
                out[index] = rng.randint(1, batches)
            return out

        assert plan(7, 0.5) == plan(7, 0.5)
        assert plan(7, 0.5)  # the fixture sizes guarantee aborters

    def test_abort_over_tcp(self, tiny_task, tiny_scores):
        """The wire-protocol cancel: a TCP client aborts mid-stream and
        gets the terminal CANCELLED acknowledgement; the connection
        stays usable for new sessions."""

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(max_sessions=4, port=0),
            )
            async with server:
                client = await TcpClient.connect(
                    server.config.host, server.port
                )
                try:
                    session = await client.open()
                    await session.push(tiny_scores[0][:BATCH])
                    await session.abort()
                    replacement = await client.open()
                    await replacement.push(tiny_scores[1][:BATCH])
                    final = await replacement.finish()
                    status = await client.status()
                finally:
                    await client.close()
            return final, status

        final, status = asyncio.run(scenario())
        assert final["words"] is not None
        assert status["metrics"]["counters"]["sessions_cancelled"] >= 1
