"""Transcription-server tests: the ISSUE's acceptance criteria.

Concurrent sessions must transcribe exactly what sequential streaming
does; admission control must reject, never hang; graceful shutdown
must drain; metrics must show real work.  Every test drives the real
asyncio stack via ``asyncio.run`` (no event-loop test plugin needed).
"""

import asyncio

import numpy as np
import pytest

from repro.asr import DecodePool
from repro.asr.streaming import StreamingSession
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import (
    Busy,
    ServeConfig,
    ServeError,
    ShardedClient,
    ShardedServer,
    TcpClient,
    TranscriptionServer,
    protocol,
)

from tests.serve.conftest import wire

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


@pytest.fixture(scope="module")
def sequential_results(tiny_task, wire_scores):
    """The ground truth every served transcript must match: a decode of
    each matrix the server receives (streamed finals equal it)."""
    with DecodePool(tiny_task.am, tiny_task.lm, config=CONFIG) as pool:
        return pool.decode_scores(wire_scores)


def make_server(tiny_task, **overrides) -> TranscriptionServer:
    serve_config = ServeConfig(**overrides)
    return TranscriptionServer(
        tiny_task.am, tiny_task.lm, decoder_config=CONFIG,
        serve_config=serve_config,
    )


async def stream_one(
    client, scores, batch_frames=BATCH_FRAMES, payload=protocol.PAYLOAD_SCORES
):
    session = await client.open(payload=payload)
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
                client = await server.connect_local()
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
                session = await (await server.connect_local()).open()
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
                session = await (await server.connect_local()).open()
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
                client = await server.connect_local()
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
                client = await server.connect_local()
                session = await client.open()
                # Two FRAMES lines in one write: the server reads both
                # in one callback, the scheduler never gets the loop
                # back between them, so the second must bounce.
                line = protocol.encode_message(
                    {
                        "type": protocol.FRAMES,
                        "session": session.session_id,
                        "scores": protocol.matrix_to_payload(
                            tiny_scores[0][:BATCH_FRAMES]
                        ),
                    }
                )
                client._writer.write(line * 2)
                replies = [
                    (await session._next_event())["type"] for _ in range(2)
                ]
                await session.finish()
                await client.close()
                return replies, server.metrics.snapshot()

        replies, metrics = asyncio.run(scenario())
        assert sorted(replies) == [protocol.BUSY, protocol.PARTIAL]
        assert metrics["counters"]["pushes_rejected"] == 1

    def test_idle_session_evicted(self, tiny_task, tiny_scores):
        async def scenario():
            async with make_server(
                tiny_task, idle_timeout_seconds=0.05
            ) as server:
                session = await (await server.connect_local()).open()
                await session.push(tiny_scores[0][:BATCH_FRAMES])
                await asyncio.sleep(0.3)  # go quiet past the timeout
                with pytest.raises(ServeError, match="idle timeout"):
                    await session.finish()
                return server.metrics.snapshot()

        metrics = asyncio.run(scenario())
        assert metrics["counters"]["sessions_timed_out"] == 1

    def test_idle_session_evicted_while_others_stream(
        self, monkeypatch, tiny_task, tiny_scores
    ):
        """A session gone quiet times out even while another keeps a
        batch queued for every scheduler cycle, so the loop never parks.
        The scheduler's clock advances 1 ms per read, whatever the host's
        speed; the busy session stops re-pushing after ``cap`` partials
        or once the quiet one is gone."""
        from itertools import count

        from repro.serve import scheduler as scheduler_module

        ticks = count()
        monkeypatch.setattr(
            scheduler_module, "perf_counter", lambda: next(ticks) * 1e-3
        )
        batch = tiny_scores[0][:BATCH_FRAMES]
        cap = 1000

        async def scenario():
            server = make_server(tiny_task, idle_timeout_seconds=0.1)
            scheduler = server.scheduler
            parks = 0
            park = scheduler._park

            async def counting_park():
                nonlocal parks
                parks += 1
                await park()

            scheduler._park = counting_park
            async with server:
                client = await server.connect_local()
                quiet = scheduler._sessions[(await client.open()).session_id]
                busy = scheduler._sessions[(await client.open()).session_id]
                partials, evicted = [], asyncio.Event()

                def on_busy(message):
                    partials.append(message)
                    if not quiet.closed and len(partials) < cap:
                        scheduler.push(busy, batch)

                def on_quiet(message):
                    at_eviction.append((message, len(partials), parks))
                    evicted.set()

                at_eviction = []
                busy.sink, quiet.sink = on_busy, on_quiet
                scheduler.push(busy, batch)
                parks_at_push = parks
                await asyncio.wait_for(evicted.wait(), 30)
                ((message, busy_partials, parks_then),) = at_eviction
                return (
                    message,
                    busy_partials,
                    parks_then - parks_at_push,
                    busy.closed,
                    server.metrics.snapshot()["counters"],
                )

        message, busy_partials, parks, busy_closed, counters = asyncio.run(
            scenario()
        )
        assert message["type"] == "error" and message["error"] == "idle timeout"
        # Evicted mid-stream: the other session was still being served
        # every cycle, and the loop had not parked since its first push.
        assert 0 < busy_partials < cap
        assert parks == 0 and not busy_closed
        assert counters["sessions_timed_out"] == 1


class TestShutdown:
    def test_graceful_stop_drains_inflight_sessions(
        self, tiny_task, tiny_scores, sequential_results
    ):
        """Sessions mid-utterance at stop() still get real finals."""

        async def scenario():
            server = make_server(tiny_task, max_sessions=4)
            await server.start()
            client = await server.connect_local()
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
            session = await (await server.connect_local()).open()
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
            session = await (await server.connect_local()).open()
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
            client = await server.connect_local()
            with pytest.raises(Busy, match="shutting down"):
                await client.open()

        asyncio.run(scenario())


class TestMetricsAndStatus:
    def test_status_reports_nonzero_metrics_after_load(
        self, tiny_task, tiny_scores
    ):
        async def scenario():
            async with make_server(tiny_task) as server:
                client = await server.connect_local()
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
            batch = tiny_scores[0][:BATCH_FRAMES]
            try:
                a, b, c = [home.admit() for _ in range(3)]
                for session in (a, b, c):
                    home.push(session, batch)
                    home.push(session, batch)
                check(home, "push", 6)
                home._decode_batch(a)
                check(home, "solo pop", 5)
                home._serve_fused([a, b])
                assert home.engine.injected == 1
                check(home, "fused replay", 3)
                home.push(a, batch)
                home._serve_fused([a, b])
                check(home, "fused pop", 2)
                home.push(a, batch)
                home.push(b, batch)
                home.fail(a, "boom")  # retires mid-queue
                check(home, "retire", 3)
                home.cancel(b)
                check(home, "cancel", 2)
                assert home.move("127.0.0.1", 1, 1) == c.session_id
                check(home, "move", 0)
                assert home.move("127.0.0.1", 1, 1) is None
                d = home.admit()
                home.push(d, batch)
            finally:
                await home.stop(drain=False)
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
        "poison",
        [
            pytest.param(np.nan, id="nan"),
            pytest.param(-np.inf, id="-inf"),
            pytest.param(np.inf, id="inf"),
            # Shapes the length check passes and ``reshape`` refuses:
            # the reply must be a typed error, not a dead connection.
            pytest.param(
                {"shape": [True, 4], "data": "A" * 22 + "=="},
                id="bool-shape",
            ),
            pytest.param({"shape": [0, 2**62], "data": ""}, id="huge-shape"),
            pytest.param({"shape": [2, 0], "data": ""}, id="no-width"),
        ],
    )
    def test_non_finite_push_rejected_session_and_group_unaffected(
        self, tiny_task, tiny_scores, sequential_results, poison
    ):
        """A NaN/inf batch — or one whose shape cannot be built — is not
        applied: its session gets one typed ``error`` naming it and is
        failed, while the two sessions sharing its connection (and
        fused with each other) still reach the sequential finals."""

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

                opened = []
                for _ in range(3):
                    await send({"type": "start"})
                    opened.append((await receive())["session"])
                victim, *sessions = opened
                if isinstance(poison, dict):
                    payload = {"enc": "b64f32", **poison}
                else:
                    bad = np.array(tiny_scores[0][:2])
                    bad[1, 3] = poison
                    payload = protocol.matrix_to_payload(bad)
                await send(
                    {"type": "frames", "session": victim, "scores": payload}
                )
                errors, finals = [await receive()], {}

                async def collect(kind, count):
                    while count:
                        message = await receive()
                        if message["type"] == "error":
                            errors.append(message)
                        elif message["type"] == kind:
                            count -= 1
                            if kind == "final":
                                finals[message["session"]] = message

                # The other two push in step (they fuse), one reply
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
                                        scores[start : start + BATCH_FRAMES]
                                    ),
                                }
                            )
                            sent += 1
                    await collect("partial", sent)
                for session in sessions:
                    await send({"type": "finish", "session": session})
                await collect("final", 2)
                writer.close()
                counters = server.metrics.snapshot()["counters"]
                return victim, errors, [finals[s] for s in sessions], counters

        victim, errors, finals, counters = asyncio.run(scenario())
        reason = "b64f32 shape" if isinstance(poison, dict) else "NaN or infinite"
        (error,) = errors
        assert error["type"] == "error" and error["session"] == victim
        assert reason in error["error"]
        assert counters["sessions_failed"] == 1
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost
            assert final["frames"] == want.stats.frames


def _batches(matrix):
    return [
        matrix[start : start + BATCH_FRAMES]
        for start in range(0, matrix.shape[0], BATCH_FRAMES)
    ]


def _wire_partial(message):
    return (
        message["words"],
        message["cost"],
        message["frames_consumed"],
        message["active_tokens"],
    )


class TestOneWayIn:
    """Every batch reaches the scheduler through ``_dispatch``, from the
    one client, whether it is connected over a port or a socket pair."""

    @pytest.mark.parametrize("transport", ["local", "port"])
    @pytest.mark.parametrize("payload", ["scores", "features"])
    def test_local_and_port_clients_serve_alike(
        self, tiny_task, tiny_scorer, tiny_utterances, tiny_scores,
        payload, transport,
    ):
        """Either client's pushes give the partial and final sequences
        of a solo streaming session over the matrices the server
        receives, and a NaN push gets the same error.  ``push`` raising
        it shows the error names the session: the client routes only a
        session-tagged event to a session."""
        if payload == "scores":
            matrices = tiny_scores[:3]
        else:
            matrices = [u.features for u in tiny_utterances[:3]]
        decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
        want = []
        for matrix in matrices:
            solo = StreamingSession(decoder, lookup=decoder.lookup.fork())
            partials = []
            for batch in map(wire, _batches(matrix)):
                if payload == "features":
                    batch = tiny_scorer.score(batch)
                partial = solo.push(batch)
                partials.append(
                    (
                        list(partial.words),
                        partial.cost,
                        partial.frames_consumed,
                        partial.active_tokens,
                    )
                )
            result = solo.finish()
            want.append((partials, result.words, result.cost))

        async def stream(client, matrix):
            session = await client.open(payload=payload)
            for batch in _batches(matrix):
                await session.push(batch)
            final = await session.finish()
            partials = [_wire_partial(p) for p in session.partials]
            return partials, final["words"], final["cost"]

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am,
                tiny_task.lm,
                decoder_config=CONFIG,
                serve_config=ServeConfig(
                    port=0 if transport == "port" else None
                ),
                scorer=tiny_scorer,
            )
            async with server:
                if transport == "port":
                    client = await TcpClient.connect(
                        server.config.host, server.port
                    )
                else:
                    client = await server.connect_local()
                try:
                    served = await asyncio.gather(
                        *(stream(client, matrix) for matrix in matrices)
                    )
                    poisoned = np.array(matrices[0][:BATCH_FRAMES])
                    poisoned[1, 0] = np.nan
                    session = await client.open(payload=payload)
                    with pytest.raises(ServeError) as nan:
                        await asyncio.wait_for(session.push(poisoned), 30)
                    status = await client.status()
                finally:
                    await client.close()
            return served, str(nan.value), status

        served, error, status = asyncio.run(scenario())
        assert served == want
        assert error == "matrix payload holds NaN or infinite values"
        assert status["metrics"]["counters"]["sessions_failed"] == 1

    @pytest.mark.parametrize(
        "case, reason",
        [
            pytest.param("inf", "NaN or infinite", id="inf"),
            pytest.param("bad-block", "bad b64f32 data", id="bad-block"),
            pytest.param("wrong-key", "send a 'scores' key", id="wrong-key"),
        ],
    )
    def test_a_rejected_batch_fails_its_session_not_the_connection(
        self, monkeypatch, tiny_task, tiny_scores, sequential_results,
        case, reason,
    ):
        """A batch the server cannot read gets an ``error`` naming its
        session: ``push`` raises instead of waiting for a partial that
        never comes, the connection's next ``status`` gets the status
        reply, and the next session streams to its final."""
        batch = np.array(tiny_scores[0][:BATCH_FRAMES])

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
                    session = await client.open()
                    if case == "inf":
                        batch[2, 1] = np.inf
                    elif case == "bad-block":
                        monkeypatch.setattr(
                            protocol,
                            "matrix_to_payload",
                            lambda matrix, *_: {
                                "enc": "b64f32", "shape": [1, 1], "data": "!!!"
                            },
                        )
                    else:
                        session.payload = protocol.PAYLOAD_FEATURES
                    with pytest.raises(ServeError) as rejected:
                        await asyncio.wait_for(session.push(batch), 30)
                    monkeypatch.undo()
                    status = await asyncio.wait_for(client.status(), 30)
                    final = await asyncio.wait_for(
                        stream_one(client, tiny_scores[0]), 30
                    )
                finally:
                    await client.close()
            return str(rejected.value), status, final

        error, status, final = asyncio.run(scenario())
        assert reason in error
        assert status["type"] == protocol.STATUS
        assert status["metrics"]["counters"]["sessions_failed"] == 1
        want = sequential_results[0]
        assert (final["words"], final["cost"]) == (want.words, want.cost)

    def test_an_rnn_features_session_carries_its_state_across_pushes(
        self, tiny_task, tiny_rnn, tiny_utterances
    ):
        """A ``features`` session of a recurrent scorer scores its
        pushes through one stream.  Its final has the words of the
        offline decode of the features the server receives and its cost
        to rel 1e-9 (each push's read-out product is its own), and it
        equals, bit for bit, a solo session fed a stream's scores of the
        same wire pushes.  Scoring each push from a zero state would
        miss both."""
        async def scenario():
            server = TranscriptionServer(
                tiny_task.am, tiny_task.lm, decoder_config=CONFIG,
                scorer=tiny_rnn,
            )
            async with server:
                client = await server.connect_local()
                try:
                    return await asyncio.gather(
                        *(
                            stream_one(client, u.features, payload="features")
                            for u in tiny_utterances
                        )
                    )
                finally:
                    await client.close()

        finals = asyncio.run(scenario())
        decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
        for final, utterance in zip(finals, tiny_utterances):
            want = decoder.decode(tiny_rnn.score(wire(utterance.features)))
            assert final["words"] == want.words
            assert final["cost"] == pytest.approx(want.cost, rel=1e-9)
        for final, utterance in zip(finals, tiny_utterances):
            stream = tiny_rnn.stream()
            solo = StreamingSession(decoder, lookup=decoder.lookup.fork())
            for batch in map(wire, _batches(utterance.features)):
                solo.push(stream.push(batch))
            want = solo.finish()
            assert (final["words"], final["cost"]) == (want.words, want.cost)

    def test_a_busy_features_push_leaves_the_stream_alone(
        self, tiny_task, tiny_rnn, tiny_utterances
    ):
        """A push refused ``busy`` is not scored: once the queue has
        room, the same batch scores as the stream's next rows."""
        from repro.serve.engine import InlineEngine
        from repro.serve.scheduler import Scheduler, SchedulerConfig

        features = wire(tiny_utterances[0].features)
        first, second = features[:BATCH_FRAMES], features[BATCH_FRAMES:16]
        stream = tiny_rnn.stream()
        want = [stream.push(first), stream.push(second)]

        async def scenario():
            scheduler = Scheduler(
                InlineEngine(tiny_task.am, tiny_task.lm, CONFIG),
                SchedulerConfig(max_queued_batches=1),
                scorer=tiny_rnn,
            )
            try:
                session = scheduler.admit(protocol.PAYLOAD_FEATURES)
                scheduler.push(session, first)
                with pytest.raises(Busy):
                    scheduler.push(session, second)
                got = [session.queue.popleft()]
                scheduler._queue_changed(-1)
                scheduler.push(session, second)
                got.append(session.queue.popleft())
                scheduler._queue_changed(-1)
            finally:
                await scheduler.stop(drain=False)
            return got

        got = asyncio.run(scenario())
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_a_local_client_that_loses_its_connection_fails_at_once(
        self, tiny_task, tiny_scores
    ):
        """A socket-pair client has no endpoint to re-open a session
        on: when its connection drops, a pending ``push`` raises at
        once instead of retrying for ``RELOCATE_TIMEOUT_SECONDS``."""
        from time import perf_counter

        async def scenario():
            async with make_server(tiny_task) as server:
                client = await server.connect_local()
                session = await client.open()
                await session.push(tiny_scores[0][:BATCH_FRAMES])
                for connection in list(server._connections):
                    connection._transport.abort()
                began = perf_counter()
                with pytest.raises(ServeError, match="no endpoint"):
                    await asyncio.wait_for(
                        session.push(tiny_scores[0][BATCH_FRAMES:]), 30
                    )
                elapsed = perf_counter() - began
                await client.close()
                return elapsed, server.scheduler.active_sessions

        elapsed, active = asyncio.run(scenario())
        assert elapsed < 1.0
        assert active == 0  # the server cancelled the orphaned session


class TestRetiredSessions:
    """A session that has retired is gone from both ends: its
    connection holds no entry for it, and a request naming it is an
    ``error`` naming it, never ``busy``."""

    def test_finished_sessions_leave_their_connection(
        self, tiny_task, tiny_scores
    ):
        """Fifty sessions opened and finished on one client leave their
        connection's session table empty, and a request naming one of
        them afterwards is answered with an ``error`` that names it."""

        async def scenario():
            async with make_server(tiny_task) as server:
                client = await server.connect_local()
                ids = []
                for _ in range(50):
                    session = await client.open()
                    await session.push(tiny_scores[0][:BATCH_FRAMES])
                    await session.finish()
                    ids.append(session.session_id)
                (connection,) = server._connections
                owned = dict(connection._owned)
                replies = []
                for kind in (protocol.FRAMES, protocol.FINISH, protocol.CANCEL):
                    server._dispatch(
                        {
                            "type": kind,
                            "session": ids[-1],
                            "scores": protocol.matrix_to_payload(
                                tiny_scores[0][:BATCH_FRAMES]
                            ),
                        },
                        connection._owned,
                        replies.append,
                    )
                active = server.scheduler.active_sessions
                await client.close()
                return owned, replies, active, ids[-1]

        owned, replies, active, last = asyncio.run(
            asyncio.wait_for(scenario(), 60)
        )
        assert active == 0
        assert owned == {}
        assert [r["type"] for r in replies] == [protocol.ERROR] * 3
        assert all(r["session"] == last for r in replies)
        assert all("already closed" in r["error"] for r in replies)

    def test_a_push_after_finish_raises_and_the_connection_carries_on(
        self, tiny_task, tiny_scores
    ):
        """A client session that has its final refuses a ``push`` or a
        ``finish`` at once, without sending, and the connection's next
        ``status`` gets the status reply."""

        async def scenario():
            async with make_server(tiny_task) as server:
                client = await server.connect_local()
                session = await client.open()
                await session.push(tiny_scores[0][:BATCH_FRAMES])
                final = await session.finish()
                with pytest.raises(ServeError, match="already closed") as push:
                    await asyncio.wait_for(
                        session.push(tiny_scores[0][BATCH_FRAMES:]), 5
                    )
                with pytest.raises(ServeError, match="already closed"):
                    await asyncio.wait_for(session.finish(), 5)
                await asyncio.wait_for(session.abort(), 5)
                status = await asyncio.wait_for(client.status(), 5)
                await client.close()
                return final, str(push.value), status

        final, error, status = asyncio.run(scenario())
        assert final["type"] == protocol.FINAL
        assert error.startswith(f"session {final['session']!r} already closed")
        assert status["type"] == protocol.STATUS
        counters = status["metrics"]["counters"]
        assert counters["sessions_completed"] == 1
        assert "pushes_rejected" not in counters


@pytest.mark.usefixtures("no_leaked_segments")
class TestProcessEngine:
    """Decoding in worker processes: the shard processes of a
    :class:`ShardedServer`, each attached to one shared segment."""

    def test_worker_processes_match_pool_reference(
        self, tiny_task, tiny_scorer, tiny_scores, wire_scores
    ):
        """Two shard processes serve concurrent sessions; transcripts
        equal the bundle-quantized DecodePool reference."""
        from repro.asr.parallel import DecodePool

        with DecodePool(
            tiny_task.am, tiny_task.lm, scorer=tiny_scorer, config=CONFIG
        ) as pool:
            expected = pool.decode_scores(wire_scores[:4])

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
