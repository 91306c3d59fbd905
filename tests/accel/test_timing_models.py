"""Both timing models must agree on every cross-platform ordering."""

import pytest

from repro.accel import REZA, UNFOLD, FullyComposedSimulator, UnfoldSimulator


@pytest.fixture(scope="module")
def reports(tiny_task, tiny_scores):
    unfold = UnfoldSimulator(tiny_task, config=UNFOLD.scaled(1 / 64)).run(
        tiny_scores
    )
    reza = FullyComposedSimulator(tiny_task, config=REZA.scaled(1 / 64)).run(
        tiny_scores
    )
    return unfold, reza


class TestTimingModels:
    def test_throughput_populated(self, reports):
        unfold, reza = reports
        assert unfold.throughput_seconds > 0
        assert reza.throughput_seconds > 0

    def test_both_platforms_feed_the_throughput_model(self, reports):
        """One work row per frame from either decoder, or the
        max-of-stages model silently falls back to the additive one for
        that platform; a composed graph does no decode-time LM probes."""
        unfold, reza = reports
        for report in reports:
            stats = report.decoder_stats
            assert len(stats.frame_work) == stats.frames
        assert any(probes for _, _, probes, _ in unfold.decoder_stats.frame_work)
        assert all(
            probes == 0 for _, _, probes, _ in reza.decoder_stats.frame_work
        )

    def test_throughput_bounded_by_additive(self, reports):
        """Overlap can only help (up to per-frame fill overhead)."""
        for report in reports:
            fill = 8.0 * report.decoder_stats.frames / 600e6
            assert report.throughput_seconds <= report.decode_seconds + fill

    def test_both_models_realtime(self, reports):
        for report in reports:
            assert report.speech_seconds / report.throughput_seconds > 10
            assert report.realtime_factor > 10

    def test_models_agree_on_relative_cost(self, reports):
        """If one platform is materially slower under one model, the
        other model must not say the opposite by a large factor."""
        unfold, reza = reports
        additive_ratio = unfold.decode_seconds / reza.decode_seconds
        throughput_ratio = unfold.throughput_seconds / reza.throughput_seconds
        assert additive_ratio / throughput_ratio < 3.0
        assert throughput_ratio / additive_ratio < 3.0
