"""Tests for memory layouts, trace sinks and the cycle model."""

import pytest

from repro.accel import REZA, UNFOLD, ComposedLayout, OnTheFlyLayout
from repro.accel.dram import DramModel, Traffic
from repro.accel.pipeline import cycles_for
from repro.accel.sink import ComposedSink, UnfoldSink
from repro.accel.stats import RunReport, UtteranceTiming
from repro.core.decoder import DecoderStats
from repro.core.trace import GraphSide


@pytest.fixture(scope="module")
def layout(tiny_task):
    return OnTheFlyLayout.build(tiny_task)


@pytest.fixture(scope="module")
def composed_layout(tiny_task):
    return ComposedLayout.build(tiny_task)


class TestOnTheFlyLayout:
    def test_regions_do_not_overlap(self, layout, tiny_task):
        am_states_end = tiny_task.am.fst.num_states * 5
        am_arc_addr, _ = layout.am_arc_record(0, 0)
        lm_state_addr, _ = layout.lm_state_record(0)
        lm_arc_addr, _ = layout.lm_arc_record(0, 0)
        assert am_states_end <= am_arc_addr
        assert am_arc_addr < lm_state_addr < lm_arc_addr
        assert layout.total_bytes > lm_arc_addr

    def test_arc_addresses_monotone_within_state(self, layout, tiny_task):
        for state in range(tiny_task.am.fst.num_states):
            arcs = tiny_task.am.fst.out_arcs(state)
            addrs = [layout.am_arc_record(state, i)[0] for i in range(len(arcs))]
            assert addrs == sorted(addrs)

    def test_lm_backoff_is_last_record(self, layout, tiny_task):
        lm = tiny_task.lm
        for state in range(lm.fst.num_states):
            if lm.backoff_arc(state) is None:
                continue
            word_count = len(lm.fst.out_arcs(state)) - 1
            last_word_addr, _ = layout.lm_arc_record(state, word_count - 1)
            backoff_addr, _ = layout.lm_arc_record(state, word_count)
            assert backoff_addr >= last_word_addr

    def test_total_bytes_matches_sizing(self, layout):
        expected = (
            layout.packed_am.num_states * 5
            + layout.packed_am.arc_bytes
            + layout.packed_lm.num_states * 5
            + layout.packed_lm.arc_bytes
        )
        assert layout.total_bytes == expected

    def test_per_arc_offsets_cover_all_arcs(self, layout, tiny_task):
        total = sum(len(row) for row in layout.am_arc_bit_offsets)
        assert total == tiny_task.am.fst.num_arcs


class TestComposedLayout:
    def test_total_is_model_bytes(self, composed_layout):
        assert composed_layout.total_bytes == composed_layout.address_map.model.total_bytes

    def test_state_addresses_in_range(self, composed_layout, tiny_task):
        num_lm = tiny_task.lm.fst.num_states
        for am_state in (0, 1, 5):
            for lm_state in (0, 1):
                composed = am_state * num_lm + lm_state
                addr, size = composed_layout.state_record(composed, num_lm)
                assert 0 <= addr < composed_layout.address_map.model.state_bytes
                assert size == 8


class TestUnfoldSink:
    def test_events_drive_caches_and_dram(self, tiny_task, layout):
        sink = UnfoldSink(UNFOLD.scaled(1 / 16), layout)
        sink.on_state_fetch(GraphSide.AM, 0)
        sink.on_arc_fetch(GraphSide.AM, 0, 0)
        sink.on_arc_fetch(GraphSide.LM, 0, 0)
        sink.on_token_write(8)
        sink.on_token_hash_access(0, 0)
        sink.on_olt_access(0, 1, True)
        sink.on_frame_end(0, 3)
        assert sink.state_cache.stats.accesses >= 1
        assert sink.am_arc_cache.stats.accesses >= 1
        assert sink.lm_arc_cache.stats.accesses >= 1
        assert sink.token_cache.stats.accesses >= 1
        assert sink.sram.hash_accesses == 1
        assert sink.sram.olt_accesses == 1
        assert sink.dram.total_lines >= 2  # cold misses

    def test_finish_utterance_flushes_tokens(self, tiny_task, layout):
        sink = UnfoldSink(UNFOLD.scaled(1 / 16), layout)
        sink.on_token_write(8)
        before = sink.dram.writes[Traffic.TOKENS]
        sink.finish_utterance()
        assert sink.dram.writes[Traffic.TOKENS] == before + 1

    def test_requires_lm_cache(self, layout):
        with pytest.raises(ValueError):
            UnfoldSink(REZA, layout)


class TestComposedSink:
    def test_no_olt_allowed(self, tiny_task, composed_layout):
        sink = ComposedSink(
            REZA.scaled(1 / 16), composed_layout, tiny_task.lm.fst.num_states
        )
        with pytest.raises(AssertionError):
            sink.on_olt_access(0, 1, True)

    def test_single_arc_cache(self, tiny_task, composed_layout):
        sink = ComposedSink(
            REZA.scaled(1 / 16), composed_layout, tiny_task.lm.fst.num_states
        )
        sink.on_arc_fetch(GraphSide.COMPOSED, 5, 0)
        assert sink.arc_cache.stats.accesses >= 1
        assert set(sink.caches()) == {"state_cache", "arc_cache", "token_cache"}


class TestCycleModel:
    def _stats(self, **kwargs):
        stats = DecoderStats()
        for key, value in kwargs.items():
            setattr(stats, key, value)
        return stats

    def test_components_sum(self):
        stats = self._stats(expansions=100, am_state_fetches=10, words_emitted=5)
        stats.lookup.arc_probes = 20
        stats.lookup.olt_hits = 7
        stats.lookup.backoff_arcs_taken = 3
        dram = DramModel()
        dram.read_lines(Traffic.ARCS, 32)
        report = cycles_for(stats, dram)
        assert report.total_cycles == pytest.approx(
            report.expansion_cycles
            + report.lookup_cycles
            + report.backoff_cycles
            + report.state_fetch_cycles
            + report.token_cycles
            + report.dram_stall_cycles
        )
        assert report.dram_stall_cycles > 0
        assert report.seconds(800e6) == report.total_cycles / 800e6

    def test_probes_cost_more_than_olt_hits(self):
        probing = self._stats()
        probing.lookup.arc_probes = 100
        hitting = self._stats()
        hitting.lookup.olt_hits = 100
        dram = DramModel()
        assert (
            cycles_for(probing, dram).total_cycles
            > cycles_for(hitting, dram).total_cycles
        )


class TestRunReport:
    def test_realtime_factor(self):
        report = RunReport(platform="x", task_name="y")
        report.utterances.append(UtteranceTiming(frames=100, decode_seconds=0.01))
        assert report.speech_seconds == pytest.approx(1.0)
        assert report.realtime_factor == pytest.approx(100.0)
        assert report.avg_latency_ms == pytest.approx(10.0)
        assert report.max_latency_ms == pytest.approx(10.0)

    def test_empty_report(self):
        report = RunReport(platform="x", task_name="y")
        assert report.avg_latency_ms == 0.0
        assert report.energy_mj_per_speech_second == 0.0
        assert report.bandwidth_mb_per_second == 0.0

    def test_bandwidth_by_class(self):
        report = RunReport(platform="x", task_name="y")
        report.utterances.append(UtteranceTiming(frames=100, decode_seconds=1.0))
        report.dram_bytes_by_class = {
            Traffic.STATES: 2**20,
            Traffic.ARCS: 2**21,
            Traffic.TOKENS: 0,
        }
        bw = report.bandwidth_by_class_mb_per_second()
        assert bw["states"] == pytest.approx(1.0)
        assert bw["arcs"] == pytest.approx(2.0)
        assert report.bandwidth_mb_per_second == pytest.approx(3.0)
