"""Fault-tolerance tests: the chaos harness against the serve stack.

The acceptance criterion of the fault-tolerance layer: with
``ProcessEngine(workers=2)``, killing one worker mid-utterance makes
its sessions migrate from their rolling checkpoints and finish with
transcripts bit-identical to an uninterrupted run; no dispatch thread
blocks past the configured request deadline; the recovery shows up in
metrics.  Every chaos plan here is deterministic (no sleeps to "wait
for the crash" — the fault fires on a counted dispatch), so the same
sessions migrate at the same points on every run.
"""

import asyncio
from time import perf_counter

import pytest

from repro.asr.parallel import DecodePool
from repro.asr.streaming import OnTheFlyDecoder, transcribe_streams
from repro.core import DecoderConfig
from repro.serve import (
    Busy,
    CircuitBreaker,
    EngineError,
    FlakyEngine,
    ServeConfig,
    ServeError,
    TcpClient,
    TranscriptionServer,
    TransientEngineError,
    WorkerChaos,
    kill_worker,
)
from repro.serve import protocol
from repro.serve.engine import ProcessEngine
from repro.serve.loadgen import run_load
from repro.serve.scheduler import (
    BREAKER_CLOSED,
    BREAKER_DEGRADED,
    BREAKER_OPEN,
    SchedulerConfig,
)

CONFIG = DecoderConfig(beam=14.0)
BATCH = 8


@pytest.fixture(scope="module")
def pool_reference(tiny_task, tiny_scorer, tiny_scores):
    """Uninterrupted decode of the bundle-quantized recognizer — what
    every post-crash transcript must still equal bit-for-bit."""
    with DecodePool(
        tiny_task.am,
        tiny_task.lm,
        scorer=tiny_scorer,
        config=CONFIG,
        parallelism=1,
    ) as pool:
        return pool.decode_streams(tiny_scores, batch_frames=BATCH)


@pytest.fixture(scope="module")
def inline_reference(tiny_task, tiny_scores):
    """Sequential parent-graph decode (the in-process engine's truth)."""
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
    return transcribe_streams(decoder, tiny_scores, BATCH)


def make_engine(tiny_task, tiny_scorer, **overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("checkpoint_interval", 4)
    overrides.setdefault("request_timeout", 10.0)
    overrides.setdefault("supervisor_poll_seconds", 0.05)
    return ProcessEngine(
        tiny_task.am,
        tiny_task.lm,
        scorer=tiny_scorer,
        config=CONFIG,
        **overrides,
    )


def stream_all(engine, matrices, first_batch_pushed=False):
    """Drive every matrix through its own engine session to a final."""
    ids = [f"s{i}" for i in range(len(matrices))]
    finals = {}
    for i, session_id in enumerate(ids):
        scores = matrices[i]
        start_at = BATCH if first_batch_pushed else 0
        for start in range(start_at, scores.shape[0], BATCH):
            engine.push(session_id, scores[start : start + BATCH])
        finals[i] = engine.finish(session_id)
    return finals


class TestWorkerCrashRecovery:
    def test_sigkill_mid_utterance_is_bit_identical(
        self, tiny_task, tiny_scorer, tiny_scores, pool_reference
    ):
        """The acceptance test: SIGKILL one of two workers while every
        session is mid-utterance; all sessions finish, bit-exact."""
        engine = make_engine(tiny_task, tiny_scorer)
        try:
            matrices = tiny_scores[:4]
            ids = [f"s{i}" for i in range(len(matrices))]
            for session_id in ids:
                engine.start(session_id)
            for i, session_id in enumerate(ids):
                engine.push(session_id, matrices[i][:BATCH])
            kill_worker(engine, 0)
            finals = stream_all(engine, matrices, first_batch_pushed=True)
            for i, want in enumerate(pool_reference[: len(matrices)]):
                assert finals[i].words == want.words
                assert finals[i].cost == want.cost
            counters = engine.metrics.snapshot()["counters"]
            assert counters["worker_restarts"] >= 1
            # Least-loaded placement pins 2 of the 4 sessions to the
            # killed worker; both must have migrated, none lost.
            assert counters["sessions_migrated"] == 2
            assert counters.get("sessions_lost", 0) == 0
            assert counters["checkpoints_taken"] >= 1
        finally:
            engine.close()

    def test_die_chaos_plan_recovers(
        self, tiny_task, tiny_scorer, tiny_scores, pool_reference
    ):
        """os._exit on a counted dispatch (crash *inside* a push, before
        the reply) — the retried push lands on the migrated session."""
        chaos = WorkerChaos(worker_index=0, die_at_push=3)
        engine = make_engine(tiny_task, tiny_scorer, chaos=chaos)
        try:
            matrices = tiny_scores[:4]
            for i in range(len(matrices)):
                engine.start(f"s{i}")
            finals = stream_all(engine, matrices)
            for i, want in enumerate(pool_reference[: len(matrices)]):
                assert finals[i].words == want.words
                assert finals[i].cost == want.cost
            counters = engine.metrics.snapshot()["counters"]
            assert counters["worker_restarts"] >= 1
            assert counters["sessions_migrated"] >= 1
            assert counters.get("sessions_lost", 0) == 0
        finally:
            engine.close()

    def test_hang_is_bounded_by_request_timeout(
        self, tiny_task, tiny_scorer, tiny_scores, pool_reference
    ):
        """A worker that stops replying must not block its dispatch
        thread past the deadline; the session migrates and finishes."""
        chaos = WorkerChaos(
            worker_index=0, hang_at_push=2, hang_seconds=120.0
        )
        engine = make_engine(
            tiny_task, tiny_scorer, chaos=chaos, request_timeout=0.5
        )
        try:
            scores = tiny_scores[0]
            engine.start("s0")
            engine.push("s0", scores[:BATCH])
            hung = perf_counter()
            engine.push("s0", scores[BATCH : 2 * BATCH])
            elapsed = perf_counter() - hung
            # Deadline + respawn + checkpoint restore, nowhere near the
            # 120 s the worker would have slept.
            assert elapsed < 30.0
            for start in range(2 * BATCH, scores.shape[0], BATCH):
                engine.push("s0", scores[start : start + BATCH])
            final = engine.finish("s0")
            assert final.words == pool_reference[0].words
            assert final.cost == pool_reference[0].cost
            assert (
                engine.metrics.snapshot()["counters"]["worker_restarts"] >= 1
            )
        finally:
            engine.close()

    def test_dropped_reply_replays_exactly_once(
        self, tiny_task, tiny_scorer, tiny_scores, pool_reference
    ):
        """The nastiest case: the worker *decoded* the push but the ack
        vanished.  The replay buffer holds only acknowledged pushes, so
        the retried batch is applied exactly once — double-apply would
        show up as a transcript/cost divergence."""
        chaos = WorkerChaos(worker_index=0, drop_reply_at_push=2)
        engine = make_engine(
            tiny_task, tiny_scorer, chaos=chaos, request_timeout=0.5
        )
        try:
            matrices = tiny_scores[:2]
            for i in range(len(matrices)):
                engine.start(f"s{i}")
            finals = stream_all(engine, matrices)
            for i, want in enumerate(pool_reference[: len(matrices)]):
                assert finals[i].words == want.words
                assert finals[i].cost == want.cost
        finally:
            engine.close()

    def test_injected_decoder_error_is_not_transient(
        self, tiny_task, tiny_scorer, tiny_scores, pool_reference
    ):
        """A decoder exception is the application's bug, not the
        infrastructure's: it surfaces as a plain EngineError (no retry,
        no migration) and the worker keeps serving."""
        chaos = WorkerChaos(
            worker_index=0, error_at_push=2, error_message="injected fault"
        )
        engine = make_engine(tiny_task, tiny_scorer, chaos=chaos)
        try:
            scores = tiny_scores[0]
            engine.start("s0")
            engine.push("s0", scores[:BATCH])
            with pytest.raises(EngineError, match="injected fault") as info:
                engine.push("s0", scores[BATCH : 2 * BATCH])
            assert not isinstance(info.value, TransientEngineError)
            # The worker survived and the session kept its state: the
            # failed batch can simply be pushed again.
            for start in range(BATCH, scores.shape[0], BATCH):
                engine.push("s0", scores[start : start + BATCH])
            final = engine.finish("s0")
            assert final.words == pool_reference[0].words
            assert final.cost == pool_reference[0].cost
            counters = engine.metrics.snapshot()["counters"]
            assert counters.get("worker_restarts", 0) == 0
        finally:
            engine.close()


@pytest.fixture(scope="module")
def served_worker_kill(tiny_task, tiny_scorer, tiny_scores):
    """Seeded TCP load against a two-worker server whose worker 0 dies
    (``os._exit``) on its 8th push, mid-utterance for the sessions
    pinned to it.  Returns the load report, the server's metrics after
    the drain, and the workers' memory weighed after the load."""

    async def scenario():
        server = TranscriptionServer(
            tiny_task.am,
            tiny_task.lm,
            decoder_config=CONFIG,
            serve_config=ServeConfig(workers=2, port=0),
            scorer=tiny_scorer,
            chaos=WorkerChaos(worker_index=0, die_at_push=8),
        )
        async with server:
            client = await TcpClient.connect(server.config.host, server.port)
            try:
                report = await run_load(
                    client,
                    tiny_scores,
                    concurrency=4,
                    batch_frames=BATCH,
                    seed=1234,
                )
            finally:
                await client.close()
            memory = server.engine.memory_report()
        return report, server.metrics.snapshot(), memory

    return asyncio.run(scenario())


class TestServedWorkerKill:
    """The server-level chaos check: a worker death under concurrent
    TCP load through the scheduler, not just the engine driven
    directly."""

    def test_every_final_matches_the_serial_pool(
        self, served_worker_kill, tiny_scores, pool_reference
    ):
        report, snapshot, _ = served_worker_kill
        assert [o.index for o in report.outcomes] == list(
            range(len(tiny_scores))
        )
        for outcome, want in zip(report.outcomes, pool_reference):
            assert outcome.words == want.words
            assert outcome.cost == want.cost
        counters = snapshot["counters"]
        assert counters.get("sessions_lost", 0) == 0
        assert counters["worker_restarts"] >= 1
        assert counters["sessions_migrated"] >= 1
        assert snapshot["histograms"]["migration_seconds"]["count"] >= 1

    def test_workers_map_the_segment_without_copying(
        self, served_worker_kill
    ):
        """``ProcessEngine.memory_report``: every live worker, the
        respawned one included, privatizes under 10 % of the shared
        recognizer segment (read-only views never dirty its pages)."""
        _, _, memory = served_worker_kill
        assert memory["shared_nbytes"] > 0
        assert len(memory["workers"]) == 2
        segments = [info.get("segment") for info in memory["workers"]]
        if any(segment is None for segment in segments):
            pytest.skip("/proc/<pid>/smaps unavailable")
        for segment in segments:
            assert segment["private_bytes"] * 10 <= memory["shared_nbytes"]


class TestEngineFaultPaths:
    def test_start_failure_unwinds_placement(
        self, tiny_task, tiny_scorer, tiny_scores, pool_reference
    ):
        """Satellite fix: a start that dies on a *raw* pipe error (not a
        typed EngineError) must not leak the placement entry or the
        worker's session count."""
        engine = make_engine(tiny_task, tiny_scorer)
        try:
            originals = [
                (worker, worker.request) for worker in engine._workers
            ]

            def explode(*args, **kwargs):
                raise OSError("pipe exploded")

            for worker, _ in originals:
                worker.request = explode
            with pytest.raises(OSError):
                engine.start("leaky")
            for worker, original in originals:
                worker.request = original
            assert engine.active_sessions() == 0
            assert all(w.sessions == 0 for w in engine._workers)
            # The slot is genuinely free: the same id starts cleanly
            # and decodes to the right transcript.
            engine.start("leaky")
            scores = tiny_scores[0]
            for start in range(0, scores.shape[0], BATCH):
                engine.push("leaky", scores[start : start + BATCH])
            final = engine.finish("leaky")
            assert final.words == pool_reference[0].words
        finally:
            engine.close()

    def test_cancel_of_dead_workers_session_is_silent(
        self, tiny_task, tiny_scorer, tiny_scores
    ):
        """Satellite fix: cancelling a session whose worker died must
        never propagate the pipe error — the caller is abandoning the
        session either way.  close() after the kill is clean too."""
        # A long supervisor poll so *this thread's* cancel is the first
        # to trip over the corpse, exercising the dead-worker branch.
        engine = make_engine(
            tiny_task, tiny_scorer, supervisor_poll_seconds=30.0
        )
        try:
            engine.start("s0")
            engine.push("s0", tiny_scores[0][:BATCH])
            kill_worker(engine, 0)
            engine.cancel("s0")  # must not raise
            assert engine.active_sessions() == 0
        finally:
            engine.close()  # must not raise either


class TestSchedulerResilience:
    def test_flaky_engine_retries_and_notifies(
        self, tiny_task, tiny_scores, inline_reference
    ):
        """One injected transient push failure: the scheduler retries
        with backoff, the client sees RETRYING then RECOVERED notices,
        and the transcript is unaffected."""

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(
                    max_sessions=4,
                    max_retries=2,
                    retry_backoff_seconds=0.01,
                ),
            )
            flaky = FlakyEngine(server.engine, failure_plan={"push": 1})
            server.engine = flaky
            server.scheduler.engine = flaky
            async with server:
                client = server.connect_local()
                session = await client.open()
                scores = tiny_scores[0]
                for start in range(0, scores.shape[0], BATCH):
                    await session.push(scores[start : start + BATCH])
                final = await session.finish()
                status = await client.status()
            return session.notices, final, status

        notices, final, status = asyncio.run(scenario())
        kinds = [notice["type"] for notice in notices]
        assert protocol.RETRYING in kinds
        assert protocol.RECOVERED in kinds
        assert final["words"] == inline_reference[0].words
        assert final["cost"] == inline_reference[0].cost
        counters = status["metrics"]["counters"]
        assert counters["retries"] >= 1
        assert counters["recoveries"] >= 1

    def test_deadline_bounds_a_stuck_engine_call(self, tiny_task, tiny_scores):
        """An engine call that outlives the request deadline fails the
        session instead of stalling the dispatch loop."""
        import time

        class StuckEngine:
            def __init__(self, inner):
                self._inner = inner

            def push(self, session_id, scores):
                time.sleep(0.5)
                return self._inner.push(session_id, scores)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(
                    max_sessions=4, request_deadline_seconds=0.05
                ),
            )
            stuck = StuckEngine(server.engine)
            server.engine = stuck
            server.scheduler.engine = stuck
            async with server:
                client = server.connect_local()
                session = await client.open()
                with pytest.raises(ServeError):
                    await session.push(tiny_scores[0][:BATCH])
                status = await client.status()
            return status

        status = asyncio.run(scenario())
        assert status["metrics"]["counters"]["deadline_exceeded"] >= 1

    def test_breaker_state_machine(self):
        clock = [0.0]
        config = SchedulerConfig(
            breaker_window=8,
            breaker_min_samples=4,
            breaker_degrade_threshold=0.5,
            breaker_open_threshold=0.75,
            breaker_reset_seconds=10.0,
        )
        breaker = CircuitBreaker(config, clock=lambda: clock[0])
        assert breaker.state == BREAKER_CLOSED
        for _ in range(2):
            breaker.record_failure()
        # Below min samples: still closed.
        assert breaker.state == BREAKER_CLOSED
        breaker.record_success()
        breaker.record_failure()
        # 3 failures / 4 outcomes = 0.75: open, with cooldown.
        assert breaker.state == BREAKER_OPEN
        clock[0] += 5.0
        assert breaker.state == BREAKER_OPEN
        # Cooldown expiry forgives the window (half-open).
        clock[0] += 6.0
        assert breaker.state == BREAKER_CLOSED
        # Degraded needs a failure rate in [degrade, open).
        for _ in range(2):
            breaker.record_failure()
        for _ in range(2):
            breaker.record_success()
        assert breaker.state == BREAKER_DEGRADED

    def test_open_breaker_refuses_admission_and_degraded_unfuses(
        self, tiny_task
    ):
        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(max_sessions=4),
            )
            async with server:
                scheduler = server.scheduler
                assert scheduler._fuse_width() > 1
                # Half bad: degraded — serving continues, fusion off.
                # Interleaved so the rate never reaches the open
                # threshold at any single failure.
                for _ in range(4):
                    scheduler.breaker.record_failure()
                    scheduler.breaker.record_success()
                assert scheduler.breaker.state == BREAKER_DEGRADED
                assert scheduler._fuse_width() == 1
                client = server.connect_local()
                session = await client.open()  # degraded still admits
                await session.abort()
                # All bad: open — new sessions are refused outright.
                # (Enough failures to saturate the sliding window.)
                for _ in range(16):
                    scheduler.breaker.record_failure()
                assert scheduler.breaker.state == BREAKER_OPEN
                with pytest.raises(Busy, match="circuit"):
                    await client.open()
                status = await client.status()
            return status

        status = asyncio.run(scenario())
        assert status["breaker"] == BREAKER_OPEN


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
