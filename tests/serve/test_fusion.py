"""Session fusion in the serving stack: parity, metrics, determinism.

The scheduler hands up to ``max_fused_sessions`` queued sessions to
``InlineEngine.push_many`` per dispatch cycle.  Served transcripts
must be bit-identical to a dispatch width of one; the win shows up in
the metrics (fewer engine dispatches — ``kernel_calls`` — per decoded
batch) rather than in the words.
"""

import asyncio

import pytest

from repro.asr.streaming import StreamingSession
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import ServeConfig, TranscriptionServer
from repro.serve.engine import EngineError, InlineEngine
from repro.serve.loadgen import run_load

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


class TestInlineEnginePushMany:
    def test_matches_solo_sessions(self, tiny_task, tiny_scores):
        engine = InlineEngine(tiny_task.am, tiny_task.lm, CONFIG)
        ids = [f"s{i}" for i in range(4)]
        for session_id in ids:
            engine.start(session_id)
        decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
        references = [StreamingSession(decoder) for _ in ids]
        for start in range(0, max(s.shape[0] for s in tiny_scores), 8):
            items = [
                (session_id, tiny_scores[i][start : start + 8])
                for i, session_id in enumerate(ids)
            ]
            partials = engine.push_many(items)
            for reference, (_, batch), partial in zip(
                references, items, partials
            ):
                assert reference.push(batch) == partial
        for i, session_id in enumerate(ids):
            want = references[i].finish()
            got = engine.finish(session_id)
            assert got.words == want.words
            assert got.cost == want.cost

    def test_unknown_session_raises_before_any_advance(
        self, tiny_task, tiny_scores
    ):
        engine = InlineEngine(tiny_task.am, tiny_task.lm, CONFIG)
        engine.start("a")
        engine.start("b")
        with pytest.raises(EngineError):
            engine.push_many(
                [
                    ("a", tiny_scores[0][:8]),
                    ("missing", tiny_scores[1][:8]),
                    ("b", tiny_scores[2][:8]),
                ]
            )
        # Every known session's frame counter is untouched — including
        # the one listed *before* the unknown id in the batch.
        assert engine._sessions["a"].frames_consumed == 0
        assert engine._sessions["b"].frames_consumed == 0
        # And the sessions are still usable: decoding from here matches
        # a fresh solo reference bit-for-bit, proving no hidden state
        # advanced either.
        decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
        for session_id, scores in (("a", tiny_scores[0]),
                                   ("b", tiny_scores[2])):
            reference = StreamingSession(decoder)
            assert engine.push(session_id, scores[:8]) == reference.push(
                scores[:8]
            )
            want = reference.finish()
            got = engine.finish(session_id)
            assert got.words == want.words
            assert got.cost == want.cost

    def test_fuse_off_serializes(self, tiny_task, tiny_scores):
        engine = InlineEngine(
            tiny_task.am, tiny_task.lm, CONFIG, max_fused_sessions=1
        )
        assert engine.max_fused_sessions == 1
        engine.start("a")
        engine.start("b")
        partials = engine.push_many(
            [("a", tiny_scores[0][:8]), ("b", tiny_scores[1][:8])]
        )
        assert [p.frames_consumed for p in partials] == [8, 8]


def _serve(tiny_task, tiny_scores, width=8, seed=7):
    """Serve every utterance at once, fusing up to ``width`` sessions."""

    async def scenario():
        engine = InlineEngine(
            tiny_task.am, tiny_task.lm, CONFIG, max_fused_sessions=width
        )
        server = TranscriptionServer(
            serve_config=ServeConfig(max_sessions=8), engine=engine
        )
        async with server:
            report = await run_load(
                await server.connect_local(),
                tiny_scores,
                concurrency=len(tiny_scores),
                batch_frames=BATCH_FRAMES,
                seed=seed,
            )
            return report, server.metrics.snapshot()

    return asyncio.run(scenario())


class TestFusedServing:
    def test_transcripts_match_unfused(self, tiny_task, tiny_scores):
        fused, fused_snap = _serve(tiny_task, tiny_scores)
        unfused, unfused_snap = _serve(tiny_task, tiny_scores, width=1)
        for a, b in zip(fused.outcomes, unfused.outcomes):
            assert a.words == b.words, a.index
            assert a.cost == b.cost, a.index
        # Unfused serving pays one engine dispatch per batch; fusion
        # must beat that ratio (that is its entire point).
        fused_ratio = (
            fused_snap["counters"]["kernel_calls"]
            / fused_snap["counters"]["batches_decoded"]
        )
        unfused_ratio = (
            unfused_snap["counters"]["kernel_calls"]
            / unfused_snap["counters"]["batches_decoded"]
        )
        assert unfused_ratio == 1.0
        assert fused_ratio < unfused_ratio
        assert fused_snap["gauges"]["fused_sessions"] >= 2
        # The gauge holds the last dispatch only; the histogram carries
        # the run's mean width, one observation per fused dispatch.
        width = fused_snap["histograms"]["fused_width"]
        assert width["mean"] > 1 and width["p95"] >= 2
        assert "fused_width" not in unfused_snap["histograms"]

    def test_seeded_replay_is_deterministic(self, tiny_task, tiny_scores):
        first, _ = _serve(tiny_task, tiny_scores, seed=99)
        second, _ = _serve(tiny_task, tiny_scores, seed=99)
        assert first.seed == second.seed == 99
        assert [o.words for o in first.outcomes] == [
            o.words for o in second.outcomes
        ]
        assert [o.cost for o in first.outcomes] == [
            o.cost for o in second.outcomes
        ]
