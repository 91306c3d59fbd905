"""Feature-streaming serving: server-side scoring end to end.

Sessions that negotiate ``payload: features`` stream raw feature
frames and the *server* runs the acoustic model, at dispatch.  Every
final must be bit-identical to the classic pre-scored protocol, which
itself matches sequential streaming; the compact ``b64f32`` encoding
quantizes the wire matrices, so it asserts word parity only.
"""

import asyncio

import numpy as np
import pytest

from repro.asr.streaming import transcribe_streams
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import (
    ScoringError,
    ScoringService,
    ServeConfig,
    ServeError,
    TcpClient,
    TranscriptionServer,
)
from repro.serve.loadgen import run_load

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


@pytest.fixture(scope="module")
def sequential_results(tiny_task, tiny_scores):
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
    return transcribe_streams(decoder, tiny_scores, BATCH_FRAMES)


def make_server(tiny_task, tiny_scorer, **overrides) -> TranscriptionServer:
    serve_config = ServeConfig(**overrides)
    return TranscriptionServer(
        tiny_task.am,
        tiny_task.lm,
        scorer=tiny_scorer,
        decoder_config=CONFIG,
        serve_config=serve_config,
    )


async def stream_one(client, matrix, payload="features", encoding="list"):
    session = await client.open(payload=payload, encoding=encoding)
    for start in range(0, matrix.shape[0], BATCH_FRAMES):
        await session.push(matrix[start : start + BATCH_FRAMES])
    return await session.finish()


def stream_utterances(tiny_task, tiny_scorer, utterances, **kwargs):
    async def scenario():
        async with make_server(
            tiny_task, tiny_scorer, max_sessions=8
        ) as server:
            client = server.connect_local()
            finals = await asyncio.gather(
                *(
                    stream_one(client, u.features, **kwargs)
                    for u in utterances
                )
            )
            return finals, server.status_message()

    return asyncio.run(scenario())


class TestFeatureStreaming:
    def test_sync_scoring_mode_matches_too(
        self, tiny_task, tiny_scorer, tiny_utterances, sequential_results
    ):
        """Feature payloads scored at dispatch: every final bit-equal
        to the sequential pre-scored pass."""
        finals, status = stream_utterances(
            tiny_task, tiny_scorer, tiny_utterances
        )
        assert status["scoring"] == "at-dispatch"
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost
            assert final["frames"] == want.stats.frames
        counters = status["metrics"]["counters"]
        assert counters["feature_batches_scored"] >= len(tiny_utterances)

    def test_b64f32_features_preserve_words(
        self, tiny_task, tiny_scorer, tiny_utterances, sequential_results
    ):
        """The compact encoding quantizes features to float32: costs
        drift, transcripts hold on this task."""
        finals, _ = stream_utterances(
            tiny_task, tiny_scorer, tiny_utterances, encoding="b64f32"
        )
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words

    def test_scores_payload_still_default_and_exact(
        self, tiny_task, tiny_scorer, tiny_scores, sequential_results
    ):
        finals, _ = stream_utterances(
            tiny_task,
            tiny_scorer,
            [type("U", (), {"features": s})() for s in tiny_scores],
            payload="scores",
        )
        for final, want in zip(finals, sequential_results):
            assert final["words"] == want.words
            assert final["cost"] == want.cost

    def test_scorerless_server_rejects_features_payload(self, tiny_task):
        async def scenario():
            server = TranscriptionServer(
                tiny_task.am, tiny_task.lm, decoder_config=CONFIG
            )
            async with server:
                client = server.connect_local()
                with pytest.raises(ServeError):
                    await client.open(payload="features")
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
                final = await stream_one(
                    server.connect_local(), tiny_utterances[0].features
                )
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


class TestLoadgenPayloadKnob:
    def test_feature_load_parity_with_score_load(
        self, tiny_task, tiny_scorer, tiny_utterances, tiny_scores
    ):
        """Same seed, payload=features vs payload=scores: identical
        outcomes utterance for utterance (the --payload knob's parity
        contract)."""

        async def run(payload):
            async with make_server(
                tiny_task, tiny_scorer, max_sessions=8
            ) as server:
                return await run_load(
                    server.connect_local(),
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
        for got, want in zip(
            features_report.outcomes, scores_report.outcomes
        ):
            assert got.words == want.words
            assert got.cost == want.cost
            assert got.frames == want.frames

    def test_features_payload_requires_matrices(
        self, tiny_task, tiny_scorer, tiny_scores
    ):
        async def scenario():
            async with make_server(tiny_task, tiny_scorer) as server:
                with pytest.raises(ValueError):
                    await run_load(
                        server.connect_local(),
                        tiny_scores,
                        payload="features",
                    )

        asyncio.run(scenario())


class TestScoringService:
    def test_scores_at_resolution_not_at_submit(
        self, tiny_scorer, tiny_utterances
    ):
        calls = []

        class Counting:
            def score(self, features):
                calls.append(features.shape)
                return tiny_scorer.score(features)

        features = tiny_utterances[0].features
        handle = ScoringService(Counting()).submit(features)
        assert handle.frames == features.shape[0] and not calls
        scores = handle.result()
        assert handle.result() is scores and len(calls) == 1
        assert np.array_equal(scores, tiny_scorer.score(features))

    def test_zero_frame_submission_short_circuits(self, tiny_scorer):
        handle = ScoringService(tiny_scorer).submit(np.zeros((0, 0)))
        assert handle.result().shape == (0, 0)

    def test_resolution_error_is_cached(self, tiny_utterances):
        class Failing:
            def score(self, features):
                raise RuntimeError("boom")

        handle = ScoringService(Failing()).submit(
            tiny_utterances[0].features
        )
        with pytest.raises(ScoringError) as first:
            handle.result()
        # Replay-on-failure re-resolves for free: same typed error.
        with pytest.raises(ScoringError) as second:
            handle.result()
        assert second.value is first.value

    def test_requires_a_scorer(self):
        with pytest.raises(ValueError):
            ScoringService(None)
