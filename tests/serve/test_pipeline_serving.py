"""Feature-streaming serving: server-side scoring end to end.

Sessions that negotiate ``payload: features`` stream raw feature
frames and the *server* runs the acoustic model as each batch is
pushed.  Every final must be bit-identical to sequential streaming of
the scores of the features the server receives (their ``b64f32``
round trip); against the float64 features, the quantized wire holds
word parity only.
"""

import asyncio

import numpy as np
import pytest

from repro.asr import DecodePool
from repro.core import DecoderConfig
from repro.serve import (
    ServeConfig,
    ServeError,
    ShardedClient,
    ShardedServer,
    TcpClient,
    TranscriptionServer,
    protocol,
)
from repro.serve.loadgen import run_load
from repro.shm import bundle_quantize

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


@pytest.fixture(scope="module")
def sequential_results(tiny_task, wire_feature_scores):
    """What a ``features`` session must decode to."""
    with DecodePool(tiny_task.am, tiny_task.lm, config=CONFIG) as pool:
        return pool.decode_scores(wire_feature_scores)


@pytest.fixture(scope="module")
def score_results(tiny_task, wire_scores):
    """What a ``scores`` session must decode to."""
    with DecodePool(tiny_task.am, tiny_task.lm, config=CONFIG) as pool:
        return pool.decode_scores(wire_scores)


class CountingScorer:
    """The tiny scorer, recording the shape of every batch it scores."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def score(self, features):
        self.calls.append(features.shape)
        return self._inner.score(features)


def make_server(tiny_task, tiny_scorer, **overrides) -> TranscriptionServer:
    serve_config = ServeConfig(**overrides)
    return TranscriptionServer(
        tiny_task.am,
        tiny_task.lm,
        scorer=tiny_scorer,
        decoder_config=CONFIG,
        serve_config=serve_config,
    )


async def stream_one(client, matrix, payload="features"):
    session = await client.open(payload=payload)
    for start in range(0, matrix.shape[0], BATCH_FRAMES):
        await session.push(matrix[start : start + BATCH_FRAMES])
    return await session.finish()


def stream_utterances(tiny_task, tiny_scorer, utterances, **kwargs):
    async def scenario():
        async with make_server(
            tiny_task, tiny_scorer, max_sessions=8
        ) as server:
            client = await server.connect_local()
            finals = await asyncio.gather(
                *(
                    stream_one(client, u.features, **kwargs)
                    for u in utterances
                )
            )
            await client.close()
            return finals, server.status_message()

    return asyncio.run(scenario())


class TestFeatureStreaming:
    def test_sync_scoring_mode_matches_too(
        self, tiny_task, tiny_scorer, tiny_utterances, sequential_results
    ):
        """Feature payloads scored at push: every final bit-equal to
        the sequential pass over the scores of the received features."""
        finals, status = stream_utterances(
            tiny_task, tiny_scorer, tiny_utterances
        )
        assert status["scoring"] == "at-push"
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost
            assert final["frames"] == want.stats.frames
        counters = status["metrics"]["counters"]
        assert counters["feature_batches_scored"] >= len(tiny_utterances)

    def test_b64f32_features_preserve_words(
        self, tiny_task, tiny_scorer, tiny_utterances, tiny_scores
    ):
        """The wire quantizes features to float32: costs drift from the
        float64 decode, transcripts hold on this task."""
        with DecodePool(tiny_task.am, tiny_task.lm, config=CONFIG) as pool:
            exact = pool.decode_scores(tiny_scores)
        finals, _ = stream_utterances(tiny_task, tiny_scorer, tiny_utterances)
        for final, want in zip(finals, exact):
            assert final["words"] == want.words

    def test_scores_payload_still_default_and_exact(
        self, tiny_task, tiny_scorer, tiny_scores, score_results
    ):
        finals, _ = stream_utterances(
            tiny_task,
            tiny_scorer,
            [type("U", (), {"features": s})() for s in tiny_scores],
            payload="scores",
        )
        for final, want in zip(finals, score_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost

    def test_scorerless_server_rejects_features_payload(self, tiny_task):
        async def scenario():
            server = TranscriptionServer(
                tiny_task.am, tiny_task.lm, decoder_config=CONFIG
            )
            async with server:
                client = await server.connect_local()
                with pytest.raises(ServeError):
                    await client.open(payload="features")
                await client.close()
                assert server.status_message()["scoring"] is None

        asyncio.run(scenario())

    def test_cli_configured_server_serves_features(self, tiny_utterances):
        """``python -m repro serve`` used to build no scorer for its
        single-process server and reject every ``payload=features``
        session."""
        import repro.cli as cli

        args = cli.build_parser().parse_args(["serve", "tiny"])

        async def scenario():
            async with cli.serve_server(args) as server:
                client = await server.connect_local()
                final = await stream_one(client, tiny_utterances[0].features)
                await client.close()
                return final, server.status_message()

        final, status = asyncio.run(scenario())
        assert final["words"] and np.isfinite(final["cost"])
        assert status["scoring"] is not None

    def test_tcp_feature_streaming_matches_local(
        self, tiny_task, tiny_scorer, tiny_utterances, sequential_results
    ):
        async def scenario():
            server = make_server(tiny_task, tiny_scorer, port=0)
            async with server:
                client = await TcpClient.connect(
                    server.config.host, server.port
                )
                try:
                    return await asyncio.gather(
                        *(
                            stream_one(client, u.features)
                            for u in tiny_utterances[:3]
                        )
                    )
                finally:
                    await client.close()

        finals = asyncio.run(scenario())
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost

    def test_zero_frame_keep_alive_skips_the_scorer(
        self, tiny_task, tiny_scorer, tiny_utterances, sequential_results
    ):
        """A zero-frame ``features`` push is a keep-alive: its partial
        consumed nothing, it never reaches the scorer, and the final is
        the one without it."""
        scorer = CountingScorer(tiny_scorer)
        features = tiny_utterances[0].features

        async def scenario():
            async with make_server(tiny_task, scorer) as server:
                client = await server.connect_local()
                session = await client.open(payload="features")
                alive = await session.push(np.zeros((0, features.shape[1])))
                final = await stream_one(client, features)
                await client.close()
                return alive, final, server.metrics.snapshot()["counters"]

        alive, final, counters = asyncio.run(scenario())
        assert alive["frames_consumed"] == 0
        assert all(frames > 0 for frames, _ in scorer.calls)
        batches = -(-features.shape[0] // BATCH_FRAMES)
        assert len(scorer.calls) == counters["feature_batches_scored"] == batches
        want = sequential_results[0]
        assert (final["words"], final["cost"]) == (want.words, want.cost)

    def test_a_busy_push_is_never_scored(
        self, tiny_task, tiny_scorer, tiny_utterances
    ):
        """Scoring runs at push, after admission: of two batches sent in
        one write to a session whose queue holds one, the second gets
        ``busy`` and never reaches the scorer."""
        scorer = CountingScorer(tiny_scorer)
        batch = tiny_utterances[0].features[:BATCH_FRAMES]

        async def scenario():
            async with make_server(
                tiny_task, scorer, max_queued_batches=1
            ) as server:
                client = await server.connect_local()
                session = await client.open(payload="features")
                line = protocol.encode_message(
                    {
                        "type": protocol.FRAMES,
                        "session": session.session_id,
                        "features": protocol.matrix_to_payload(batch),
                    }
                )
                client._writer.write(line * 2)
                replies = [
                    (await session._next_event())["type"] for _ in range(2)
                ]
                await session.finish()
                await client.close()
                return replies, server.metrics.snapshot()["counters"]

        replies, counters = asyncio.run(scenario())
        assert sorted(replies) == [protocol.BUSY, protocol.PARTIAL]
        assert scorer.calls == [batch.shape]
        assert counters["feature_batches_scored"] == 1
        assert counters["pushes_rejected"] == 1


class TestScoringService:
    def test_resolution_error_is_cached(
        self, tiny_task, tiny_utterances
    ):
        """A scoring failure is final for its session: the push gets a
        session-tagged error, and a later push on the same session is
        refused as closed (a ``ServeError``, not the retryable
        ``Busy``) without running the scorer again."""
        calls = []

        class Failing:
            def score(self, features):
                calls.append(features.shape)
                raise RuntimeError("boom")

        batch = tiny_utterances[0].features[:BATCH_FRAMES]

        async def scenario():
            async with make_server(tiny_task, Failing()) as server:
                client = await server.connect_local()
                session = await client.open(payload="features")
                with pytest.raises(ServeError) as first:
                    await session.push(batch)
                with pytest.raises(ServeError) as second:
                    await session.push(batch)
                status = await client.status()
                await client.close()
                return str(first.value), str(second.value), status

        first, second, status = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30)
        )
        assert "acoustic scoring failed" in first and "boom" in first
        assert "already closed" in second
        assert calls == [batch.shape]
        assert status["type"] == protocol.STATUS
        assert status["metrics"]["counters"]["sessions_failed"] == 1


class TestLoadgenPayloadKnob:
    def test_feature_load_parity_with_score_load(
        self, tiny_task, tiny_scorer, tiny_utterances, tiny_scores,
        sequential_results, score_results,
    ):
        """Same seed, payload=features vs payload=scores: the same
        words and frames utterance for utterance (the --payload knob's
        parity contract).  The wire rounds features before they are
        scored and scores after, so each run's costs are exactly its
        own reference's."""

        async def run(payload):
            async with make_server(
                tiny_task, tiny_scorer, max_sessions=8
            ) as server:
                return await run_load(
                    await server.connect_local(),
                    tiny_scores,
                    concurrency=4,
                    batch_frames=BATCH_FRAMES,
                    seed=99,
                    feature_matrices=(
                        [u.features for u in tiny_utterances]
                        if payload == "features"
                        else None
                    ),
                    payload=payload,
                )

        scores_report = asyncio.run(run("scores"))
        features_report = asyncio.run(run("features"))
        assert features_report.utterances == scores_report.utterances
        for got, want, by_features, by_scores in zip(
            features_report.outcomes,
            scores_report.outcomes,
            sequential_results,
            score_results,
        ):
            assert got.words == want.words
            assert got.frames == want.frames
            assert (got.words, got.cost) == (by_features.words, by_features.cost)
            assert (want.words, want.cost) == (by_scores.words, by_scores.cost)

    def test_features_payload_requires_matrices(
        self, tiny_task, tiny_scorer, tiny_scores
    ):
        async def scenario():
            async with make_server(tiny_task, tiny_scorer) as server:
                with pytest.raises(ValueError):
                    await run_load(
                        await server.connect_local(),
                        tiny_scores,
                        payload="features",
                    )

        asyncio.run(scenario())


@pytest.mark.usefixtures("no_leaked_segments")
class TestShardedFeatures:
    def test_two_shards_match_single_server(
        self, tiny_task, tiny_scorer, tiny_utterances, tiny_scores
    ):
        """Shards score ``features`` sessions with the scorer packed in
        their segment: a two-shard load's finals equal one server's over
        the same (bundle-quantized) graphs."""
        am, lm = bundle_quantize(tiny_task.am, tiny_task.lm)
        features = [u.features for u in tiny_utterances]

        async def load(client):
            return await run_load(
                client,
                tiny_scores,
                concurrency=4,
                batch_frames=BATCH_FRAMES,
                seed=5,
                feature_matrices=features,
                payload="features",
            )

        async def single():
            server = TranscriptionServer(
                am,
                lm,
                scorer=tiny_scorer,
                decoder_config=CONFIG,
                serve_config=ServeConfig(max_sessions=4),
            )
            async with server:
                return await load(await server.connect_local())

        async def sharded():
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
                    report = await load(client)
                    status = await server.status()
                finally:
                    await client.close()
            return report, status

        want = asyncio.run(single())
        got, status = asyncio.run(sharded())
        assert got.utterances == want.utterances == len(tiny_scores)
        for a, b in zip(got.outcomes, want.outcomes):
            assert (a.index, a.words, a.cost, a.frames) == (
                b.index, b.words, b.cost, b.frames
            )
        # Both shards served: the scorer reached each of them.
        admitted = [
            shard["metrics"]["counters"].get("sessions_admitted", 0)
            for shard in status["shards"]
        ]
        assert all(admitted), admitted
