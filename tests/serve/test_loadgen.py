"""Load-generator tests: replay, ordering, backpressure accounting."""

import asyncio

import pytest

from repro.asr.streaming import transcribe_streams
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import ServeConfig, TranscriptionServer
from repro.serve.loadgen import run_load

CONFIG = DecoderConfig(beam=14.0)


def replay(tiny_task, tiny_scores, concurrency, seed=None, **server_overrides):
    async def scenario():
        serve_config = ServeConfig(**server_overrides)
        server = TranscriptionServer(
            tiny_task.am,
            tiny_task.lm,
            decoder_config=CONFIG,
            serve_config=serve_config,
        )
        async with server:
            return await run_load(
                server.connect_local(),
                tiny_scores,
                concurrency=concurrency,
                batch_frames=8,
                seed=seed,
            )

    return asyncio.run(scenario())


class TestRunLoad:
    def test_outcomes_in_input_order_and_correct(
        self, tiny_task, tiny_scores
    ):
        decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
        expected = transcribe_streams(decoder, tiny_scores, 8)
        report = replay(tiny_task, tiny_scores, concurrency=4)
        assert [o.index for o in report.outcomes] == list(
            range(len(tiny_scores))
        )
        for outcome, want in zip(report.outcomes, expected):
            assert outcome.words == want.words
            assert outcome.cost == want.cost
            assert outcome.frames == want.stats.frames

    def test_report_accounting(self, tiny_task, tiny_scores):
        report = replay(tiny_task, tiny_scores, concurrency=2)
        assert report.utterances == len(tiny_scores)
        assert report.frames == sum(s.shape[0] for s in tiny_scores)
        assert report.batches == sum(
            -(-s.shape[0] // 8) for s in tiny_scores
        )

    def test_busy_rejections_counted_under_tight_admission(
        self, tiny_task, tiny_scores
    ):
        """With one session slot and four workers, admission control
        must engage — and nobody may hang or lose an utterance."""
        report = replay(
            tiny_task, tiny_scores, concurrency=4, max_sessions=1
        )
        assert report.utterances == len(tiny_scores)
        assert report.busy_rejections > 0

    def test_validation(self, tiny_task, tiny_scores):
        with pytest.raises(ValueError):
            replay(tiny_task, tiny_scores, concurrency=0)

    def test_seed_recorded_and_order_reproducible(
        self, tiny_task, tiny_scores
    ):
        first = replay(tiny_task, tiny_scores, concurrency=3, seed=42)
        second = replay(tiny_task, tiny_scores, concurrency=3, seed=42)
        assert first.seed == second.seed == 42
        # Outcomes come back in input order regardless of the shuffled
        # submission order, and identically across seeded replays.
        assert [o.index for o in first.outcomes] == list(
            range(len(tiny_scores))
        )
        assert [o.words for o in first.outcomes] == [
            o.words for o in second.outcomes
        ]

    def test_unseeded_report_records_none(self, tiny_task, tiny_scores):
        report = replay(tiny_task, tiny_scores[:2], concurrency=2)
        assert report.seed is None
