"""Tests for the throughput (max-of-stages) cycle model."""

from repro.accel.dram import DramModel, Traffic
from repro.accel.pipeline import cycles_for, throughput_cycles
from repro.core.decoder import DecoderStats


def _stats_with_frames(frames):
    stats = DecoderStats()
    for survivors, expansions, probes, writes in frames:
        stats.frame_work.append((survivors, expansions, probes, writes))
        stats.expansions += expansions
        stats.am_state_fetches += survivors
        stats.words_emitted += writes
        stats.lookup.arc_probes += probes
    return stats


class TestThroughputModel:
    def test_bounded_by_additive_model(self):
        """Overlap can only help: throughput <= additive, per run."""
        stats = _stats_with_frames(
            [(100, 230, 12, 3), (80, 190, 4, 1), (120, 260, 30, 6)]
        )
        stats.tokens_created = 400
        dram = DramModel()
        dram.read_lines(Traffic.ARCS, 50)
        assert throughput_cycles(stats, dram) <= cycles_for(stats, dram).total_cycles

    def test_probe_heavy_frames_bound_by_lookup_stage(self):
        light = _stats_with_frames([(10, 100, 0, 0)])
        heavy = _stats_with_frames([(10, 100, 200, 0)])
        dram = DramModel()
        assert throughput_cycles(heavy, dram) > throughput_cycles(light, dram)

    def test_dram_stalls_added(self):
        stats = _stats_with_frames([(10, 20, 0, 0)])
        quiet = DramModel()
        busy = DramModel()
        busy.read_lines(Traffic.ARCS, 320)
        assert throughput_cycles(stats, busy) > throughput_cycles(stats, quiet)

    def test_real_decode_produces_frame_work(self, tiny_task, tiny_scorer):
        """Every decode records one work row per frame, and its columns
        sum to the run's counters: both decoders, both regimes, offline
        and streamed, on a tiny task and on one whose frontier reaches
        the numpy kernels.  A word emitted is a lattice node written.
        A zero-frame decode has no rows, and both cycle models charge
        it the DRAM stalls alone."""
        from repro.am import GmmAcousticModel
        from repro.asr import KALDI_TEDLIUM, build_task, decode_streaming
        from repro.core import (
            DecoderConfig,
            FullyComposedDecoder,
            OnTheFlyDecoder,
        )
        from repro.core.batch import SCALAR_FRONTIER_MAX

        tedlium = build_task(KALDI_TEDLIUM)
        tedlium_scorer = GmmAcousticModel.from_emissions(
            tedlium.emissions,
            num_mixtures=1,
            noise_scale=tedlium.config.noise_scale,
        )
        busy = DramModel()
        busy.read_lines(Traffic.ARCS, 64)
        for task, scorer, kernels in (
            (tiny_task, tiny_scorer, False),
            (tedlium, tedlium_scorer, True),
        ):
            utt = task.test_set(1, max_words=2 if kernels else 3)[0]
            scores = scorer.score(utt.features)
            empty = scores[:0]
            for cls in (OnTheFlyDecoder, FullyComposedDecoder):
                for vectorized in (True, False):
                    decoder = cls(
                        task.am, task.lm, DecoderConfig(vectorized=vectorized)
                    )
                    offline = decoder.decode(scores)
                    decoder.lookup.reset_transient_state()
                    streamed, _ = decode_streaming(decoder, scores, 16)
                    nothing = decoder.decode(empty)
                    context = (task.name, cls.__name__, vectorized)
                    for result in (offline, streamed, nothing):
                        stats = result.stats
                        work = stats.frame_work
                        assert len(work) == stats.frames, context
                        assert stats.words_emitted == len(result.lattice), (
                            context
                        )
                        assert sum(w[1] for w in work) == stats.expansions
                        assert sum(w[3] for w in work) == stats.words_emitted
                        for dram in (DramModel(), busy):
                            assert throughput_cycles(stats, dram) <= (
                                cycles_for(stats, dram).total_cycles
                                + 8.0 * stats.frames
                            ), context
                    assert offline.stats.words_emitted > 0, context
                    assert nothing.stats.frames == 0, context
                    assert (
                        throughput_cycles(nothing.stats, busy)
                        == cycles_for(nothing.stats, busy).total_cycles
                        == busy.stall_cycles()
                    ), context
                    if kernels:
                        assert max(offline.stats.active_history) > (
                            SCALAR_FRONTIER_MAX
                        ), context
