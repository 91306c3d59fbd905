"""Transcription-server tests: the ISSUE's acceptance criteria.

Concurrent sessions must transcribe exactly what sequential streaming
does; admission control must reject, never hang; graceful shutdown
must drain; metrics must show real work.  Every test drives the real
asyncio stack via ``asyncio.run`` (no event-loop test plugin needed).
"""

import asyncio

import numpy as np
import pytest

from repro.asr.streaming import transcribe_streams
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import (
    Busy,
    ServeConfig,
    ServeError,
    ShardedClient,
    ShardedServer,
    TcpClient,
    TranscriptionServer,
)

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


@pytest.fixture(scope="module")
def sequential_results(tiny_task, tiny_scores):
    """The ground truth every served transcript must match."""
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
    return transcribe_streams(decoder, tiny_scores, BATCH_FRAMES)


def make_server(tiny_task, **overrides) -> TranscriptionServer:
    serve_config = ServeConfig(**overrides)
    return TranscriptionServer(
        tiny_task.am, tiny_task.lm, decoder_config=CONFIG,
        serve_config=serve_config,
    )


async def stream_one(client, scores, batch_frames=BATCH_FRAMES):
    session = await client.open()
    for start in range(0, scores.shape[0], batch_frames):
        await session.push(scores[start : start + batch_frames])
    return await session.finish()


class TestConcurrentSessions:
    def test_concurrent_streams_match_sequential(
        self, tiny_task, tiny_scores, sequential_results
    ):
        """N >= 4 interleaved sessions, each transcript bit-equal to the
        sequential pass (the subsystem's core acceptance criterion)."""
        assert len(tiny_scores) >= 4

        async def scenario():
            async with make_server(tiny_task, max_sessions=8) as server:
                client = server.connect_local()
                return await asyncio.gather(
                    *(stream_one(client, scores) for scores in tiny_scores)
                )

        finals = asyncio.run(scenario())
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost
            assert final["frames"] == want.stats.frames

    def test_partials_flow_during_streaming(self, tiny_task, tiny_scores):
        async def scenario():
            async with make_server(tiny_task) as server:
                session = await server.connect_local().open()
                partials = [
                    await session.push(tiny_scores[0][i : i + BATCH_FRAMES])
                    for i in range(0, 24, BATCH_FRAMES)
                ]
                await session.finish()
                return partials

        partials = asyncio.run(scenario())
        consumed = [p["frames_consumed"] for p in partials]
        assert consumed == sorted(consumed)
        assert all(p["type"] == "partial" for p in partials)

    def test_finish_with_no_pushes(self, tiny_task):
        async def scenario():
            async with make_server(tiny_task) as server:
                session = await server.connect_local().open()
                return await session.finish()

        final = asyncio.run(scenario())
        assert final["words"] == []
        assert final["frames"] == 0


class TestAdmissionControl:
    def test_session_table_full_rejects_explicitly(
        self, tiny_task, tiny_scores
    ):
        async def scenario():
            async with make_server(tiny_task, max_sessions=2) as server:
                client = server.connect_local()
                first = await client.open()
                second = await client.open()
                with pytest.raises(Busy) as excinfo:
                    await client.open()
                reason = excinfo.value.reason
                # Retiring a session frees the slot.
                await first.finish()
                third = await client.open()
                await second.finish()
                await third.finish()
                return reason, server.metrics.snapshot()

        reason, metrics = asyncio.run(scenario())
        assert "session table full" in reason
        assert metrics["counters"]["sessions_rejected"] == 1

    def test_full_frame_queue_rejects_push(self, tiny_task, tiny_scores):
        async def scenario():
            async with make_server(
                tiny_task, max_queued_batches=1
            ) as server:
                session = await server.connect_local().open()
                rejected = 0
                # Synchronous burst: the scheduler never gets the loop
                # back between pushes, so the second must bounce.
                session.push_nowait(tiny_scores[0][:BATCH_FRAMES])
                try:
                    session.push_nowait(tiny_scores[0][:BATCH_FRAMES])
                except Busy:
                    rejected += 1
                await session.finish()
                return rejected, server.metrics.snapshot()

        rejected, metrics = asyncio.run(scenario())
        assert rejected == 1
        assert metrics["counters"]["pushes_rejected"] == 1

    def test_idle_session_evicted(self, tiny_task, tiny_scores):
        async def scenario():
            async with make_server(
                tiny_task, idle_timeout_seconds=0.05
            ) as server:
                session = await server.connect_local().open()
                await session.push(tiny_scores[0][:BATCH_FRAMES])
                await asyncio.sleep(0.3)  # go quiet past the timeout
                with pytest.raises(ServeError, match="idle timeout"):
                    await session.finish()
                return server.metrics.snapshot()

        metrics = asyncio.run(scenario())
        assert metrics["counters"]["sessions_timed_out"] == 1


class TestShutdown:
    def test_graceful_stop_drains_inflight_sessions(
        self, tiny_task, tiny_scores, sequential_results
    ):
        """Sessions mid-utterance at stop() still get real finals."""

        async def scenario():
            server = make_server(tiny_task, max_sessions=4)
            await server.start()
            client = server.connect_local()
            sessions = []
            for scores in tiny_scores[:3]:
                session = await client.open()
                await session.push(scores[:BATCH_FRAMES])
                sessions.append(session)
            stop_task = asyncio.ensure_future(server.stop(drain=True))
            finals = [
                await asyncio.wait_for(s.finish(), timeout=30)
                for s in sessions
            ]
            await stop_task
            return finals, server.scheduler.active_sessions

        finals, remaining = asyncio.run(scenario())
        assert remaining == 0
        for final, want in zip(finals, sequential_results):
            # Only the first batch was pushed before the drain, so the
            # final is a real result over those frames.
            assert final["type"] == "final"
            assert final["frames"] == min(
                BATCH_FRAMES, want.stats.frames
            )

    def test_drain_finishes_abandoned_sessions(self, tiny_task, tiny_scores):
        """Shutdown must not wait forever on a client that never calls
        finish — drain implies finish."""

        async def scenario():
            server = make_server(tiny_task)
            await server.start()
            session = await server.connect_local().open()
            await session.push(tiny_scores[0][:BATCH_FRAMES])
            await asyncio.wait_for(server.stop(drain=True), timeout=30)
            return server.scheduler.active_sessions, server.metrics.snapshot()

        remaining, metrics = asyncio.run(scenario())
        assert remaining == 0
        assert metrics["counters"]["sessions_completed"] == 1

    def test_non_drain_stop_errors_sessions(self, tiny_task, tiny_scores):
        async def scenario():
            server = make_server(tiny_task)
            await server.start()
            session = await server.connect_local().open()
            await session.push(tiny_scores[0][:BATCH_FRAMES])
            await server.stop(drain=False)
            with pytest.raises(ServeError, match="server stopped"):
                await session.finish()
            return server.scheduler.active_sessions

        assert asyncio.run(scenario()) == 0

    def test_admission_rejected_while_stopping(self, tiny_task):
        async def scenario():
            server = make_server(tiny_task)
            await server.start()
            await server.stop()
            client = server.connect_local()
            with pytest.raises(Busy, match="shutting down"):
                await client.open()

        asyncio.run(scenario())


class TestMetricsAndStatus:
    def test_status_reports_nonzero_metrics_after_load(
        self, tiny_task, tiny_scores
    ):
        async def scenario():
            async with make_server(tiny_task) as server:
                client = server.connect_local()
                await stream_one(client, tiny_scores[0])
                return await client.status()

        status = asyncio.run(scenario())
        assert status["type"] == "status"
        assert status["ok"] is True
        counters = status["metrics"]["counters"]
        assert counters["sessions_admitted"] == 1
        assert counters["sessions_completed"] == 1
        assert counters["frames_decoded"] == tiny_scores[0].shape[0]
        assert counters["batches_decoded"] > 0
        latency = status["metrics"]["histograms"]["batch_decode_seconds"]
        assert latency["count"] == counters["batches_decoded"]
        assert latency["p95"] > 0

    def test_queued_batches_gauge_equals_the_true_sum(
        self, tiny_task, tiny_scores
    ):
        """The gauge is a running count: after every transition that
        touches a queue it must equal the sum over the live sessions."""
        from repro.serve.engine import EngineError, InlineEngine
        from repro.serve.scheduler import Scheduler, SchedulerConfig

        class FirstFusedPushFails(InlineEngine):
            """Raises before any session advances, so the scheduler
            puts the batches back and replays them one at a time."""

            injected = 0

            def push_many(self, items):
                if not self.injected:
                    self.injected += 1
                    raise EngineError("injected fused-push failure")
                return super().push_many(items)

        def check(scheduler, step, want):
            gauge = scheduler.metrics.gauge("queued_batches").value
            truth = sum(len(s.queue) for s in scheduler._sessions.values())
            assert gauge == truth == want, step

        async def scenario():
            config = SchedulerConfig(max_sessions=4)
            home = Scheduler(
                FirstFusedPushFails(tiny_task.am, tiny_task.lm, CONFIG), config
            )
            away = Scheduler(
                InlineEngine(tiny_task.am, tiny_task.lm, CONFIG), config
            )
            batch = tiny_scores[0][:BATCH_FRAMES]
            try:
                a, b, c = [await home.admit() for _ in range(3)]
                for session in (a, b, c):
                    home.push(session, batch)
                    home.push(session, batch)
                check(home, "push", 6)
                await home._decode_batch(a)
                check(home, "solo pop", 5)
                await home._serve_fused([a, b])
                assert home.engine.injected == 1
                check(home, "fused replay", 3)
                home.push(a, batch)
                await home._serve_fused([a, b])
                check(home, "fused pop", 2)
                handle = await home.export_session(c.session_id)
                check(home, "export", 0)
                adopted = await away.adopt_session(handle)
                check(away, "adopt", 2)
                await away.cancel(adopted)
                check(away, "cancel", 0)
                home.push(a, batch)
                home.push(b, batch)
                await home._fail(a, "boom")  # retires mid-queue
                check(home, "retire", 1)
            finally:
                await home.stop(drain=False)
                await away.stop(drain=False)
            check(home, "stop", 0)

        asyncio.run(scenario())


class TestTcpTransport:
    def test_tcp_round_trip_matches_sequential(
        self, tiny_task, tiny_scores, sequential_results
    ):
        """Two concurrent utterances through real sockets."""

        async def scenario():
            try:
                server = make_server(tiny_task, port=0)
                await server.start()
            except OSError as exc:  # pragma: no cover - no loopback
                pytest.skip(f"cannot bind a TCP socket: {exc}")
            async with server:
                client = await TcpClient.connect(
                    server.config.host, server.port
                )
                try:
                    status = await client.status()
                    finals = await asyncio.gather(
                        *(
                            stream_one(client, scores)
                            for scores in tiny_scores[:2]
                        )
                    )
                finally:
                    await client.close()
                return status, finals

        status, finals = asyncio.run(scenario())
        assert status["type"] == "status"
        for final, want in zip(finals, sequential_results[:2]):
            assert final["words"] == want.words
            assert final["cost"] == want.cost

    def test_tcp_busy_on_full_table(self, tiny_task, tiny_scores):
        async def scenario():
            try:
                server = make_server(tiny_task, port=0, max_sessions=1)
                await server.start()
            except OSError as exc:  # pragma: no cover - no loopback
                pytest.skip(f"cannot bind a TCP socket: {exc}")
            async with server:
                client = await TcpClient.connect(
                    server.config.host, server.port
                )
                try:
                    session = await client.open()
                    with pytest.raises(Busy, match="session table full"):
                        await client.open()
                    await session.finish()
                finally:
                    await client.close()

        asyncio.run(scenario())


    @pytest.mark.parametrize(
        "encoding,poison",
        [
            ("list", np.nan),
            ("list", -np.inf),
            ("b64f32", np.inf),
            # Shapes the length check passes and ``reshape`` refuses:
            # the reply must be a typed error, not a dead connection.
            pytest.param(
                "b64f32",
                {"shape": [True, 4], "data": "A" * 22 + "=="},
                id="b64f32-bool-shape",
            ),
            pytest.param(
                "b64f32", {"shape": [0, 2**62], "data": ""}, id="b64f32-huge-shape"
            ),
            pytest.param(
                "b64f32", {"shape": [2, 0], "data": ""}, id="b64f32-no-width"
            ),
        ],
    )
    def test_non_finite_push_rejected_session_and_group_unaffected(
        self, tiny_task, tiny_scores, sequential_results, encoding, poison
    ):
        """A NaN/inf batch — or one whose shape cannot be built — gets a
        typed ``error`` reply and is not applied: its session and the
        one sharing its connection (and fused with it) still reach the
        sequential finals."""
        from repro.serve import protocol

        async def scenario():
            try:
                server = make_server(tiny_task, port=0)
                await server.start()
            except OSError as exc:  # pragma: no cover - no loopback
                pytest.skip(f"cannot bind a TCP socket: {exc}")
            async with server:
                reader, writer = await asyncio.open_connection(
                    server.config.host, server.port
                )

                async def send(message):
                    writer.write(protocol.encode_message(message))
                    await writer.drain()

                async def receive():
                    return protocol.decode_message(await reader.readline())

                sessions = []
                for _ in range(2):
                    await send({"type": "start", "encoding": encoding})
                    sessions.append((await receive())["session"])
                if isinstance(poison, dict):
                    payload = {"enc": encoding, **poison}
                else:
                    bad = np.array(tiny_scores[0][:2])
                    bad[1, 3] = poison
                    payload = protocol.matrix_to_payload(bad, encoding)
                await send(
                    {
                        "type": "frames",
                        "session": sessions[0],
                        "scores": payload,
                    }
                )
                errors, finals = [], {}

                async def collect(kind, count):
                    while count:
                        message = await receive()
                        if message["type"] == "error":
                            errors.append(message["error"])
                        elif message["type"] == kind:
                            count -= 1
                            if kind == "final":
                                finals[message["session"]] = message

                # Both sessions push in step (they fuse), one reply
                # awaited per push: the frame queues are bounded.
                longest = max(s.shape[0] for s in tiny_scores[:2])
                for start in range(0, longest, BATCH_FRAMES):
                    sent = 0
                    for session, scores in zip(sessions, tiny_scores):
                        if start < scores.shape[0]:
                            await send(
                                {
                                    "type": "frames",
                                    "session": session,
                                    "scores": protocol.matrix_to_payload(
                                        scores[start : start + BATCH_FRAMES],
                                        encoding,
                                    ),
                                }
                            )
                            sent += 1
                    await collect("partial", sent)
                for session in sessions:
                    await send({"type": "finish", "session": session})
                await collect("final", 2)
                writer.close()
                return errors, [finals[s] for s in sessions]

        errors, finals = asyncio.run(scenario())
        reason = "b64f32 shape" if isinstance(poison, dict) else "NaN or infinite"
        assert len(errors) == 1 and reason in errors[0]
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["frames"] == want.stats.frames
            if encoding == "list":
                assert final["cost"] == want.cost


@pytest.mark.usefixtures("no_leaked_segments")
class TestProcessEngine:
    """Decoding in worker processes: the shard processes of a
    :class:`ShardedServer`, each attached to one shared segment."""

    def test_worker_processes_match_pool_reference(
        self, tiny_task, tiny_scorer, tiny_scores
    ):
        """Two shard processes serve concurrent sessions; transcripts
        equal the bundle-quantized DecodePool reference."""
        from repro.asr.parallel import DecodePool

        with DecodePool(
            tiny_task.am, tiny_task.lm, scorer=tiny_scorer, config=CONFIG
        ) as pool:
            expected = pool.decode_streams(
                tiny_scores[:4], batch_frames=BATCH_FRAMES
            )

        async def scenario():
            server = ShardedServer(
                tiny_task.am,
                tiny_task.lm,
                scorer=tiny_scorer,
                decoder_config=CONFIG,
                serve_config=ServeConfig(max_sessions=4),
                shards=2,
            )
            async with server:
                client = ShardedClient(server.endpoints)
                try:
                    finals = await asyncio.gather(
                        *(
                            stream_one(client, scores)
                            for scores in tiny_scores[:4]
                        )
                    )
                    status = await server.status()
                finally:
                    await client.close()
            return finals, status

        finals, status = asyncio.run(scenario())
        for final, want in zip(finals, expected):
            assert final["words"] == want.words
            assert final["cost"] == want.cost
        assert status["num_shards"] == 2
        assert status["metrics"]["counters"]["sessions_admitted"] == 4
