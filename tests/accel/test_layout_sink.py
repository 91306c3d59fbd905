"""Tests for memory layouts, trace sinks and the cycle model."""

import hashlib
from dataclasses import replace

import pytest

from repro.accel import (
    REZA,
    UNFOLD,
    ComposedLayout,
    FullyComposedSimulator,
    OnTheFlyLayout,
    UnfoldSimulator,
)
from repro.accel.dram import DramModel, Traffic
from repro.accel.pipeline import cycles_for
from repro.accel.sink import ComposedSink, UnfoldSink
from repro.accel.stats import RunReport, UtteranceTiming
from repro.accel.lookup import LookupCounts, LookupModel
from repro.core import (
    DecoderConfig,
    EmittingArcs,
    FullyComposedDecoder,
    LmWordArcs,
    OnTheFlyDecoder,
)
from repro.core.decoder import DecoderStats


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
        for am_state in (0, 1, 5):
            for lm_state in (0, 1):
                addr, size = composed_layout.state_record(am_state, lm_state)
                assert 0 <= addr < composed_layout.address_map.model.state_bytes
                assert size == 8


class TestUnfoldSink:
    def test_events_drive_caches_and_dram(self, tiny_task, layout):
        """An expansion is the state fetch, the token-hash access and one
        fetch per emitting arc of its AM state; an epsilon arc is one
        more AM arc fetch."""
        config = UNFOLD.scaled(1 / 16)
        sink = UnfoldSink(config, layout, tiny_task)
        am = tiny_task.am.loop_state
        emitting = EmittingArcs.from_fst(tiny_task.am.fst)
        ordinals = emitting.ordinal[
            emitting.offsets[am]:emitting.offsets[am + 1]
        ].tolist()
        assert ordinals
        # The cache counts one access per line a record touches.
        lines = 0
        for ordinal in ordinals + [0]:
            addr, size = layout.am_arc_record(am, ordinal)
            line = config.line_bytes
            lines += (addr + size - 1) // line - addr // line + 1
        sink.on_expand(am, 0)
        sink.on_epsilon_arc(am, 0, 0)
        sink.fetch_lm_arc(0, 0)  # the lookup model's
        sink.on_token_write()
        sink.access_olt(0, 1, True)  # the lookup model's
        sink.on_frame_end(0, 3)
        assert sink.state_cache.stats.accesses == 1
        assert sink.am_arc_cache.stats.accesses == lines
        assert sink.lm_arc_cache.stats.accesses == 1
        assert sink.token_cache.stats.accesses >= 1
        assert sink.sram.hash_accesses == 1
        assert sink.sram.olt_accesses == 1
        assert sink.dram.total_lines >= 2  # cold misses

    def test_an_lm_walk_runs_the_lookup_model(self, tiny_task, layout):
        """A walk event becomes the model's OLT access, LM state fetch
        and binary probes, through the LM arc and state caches; twice,
        and the second is one OLT hit and one validating fetch."""
        lm = tiny_task.lm
        sink = UnfoldSink(UNFOLD.scaled(1 / 16), layout, tiny_task)
        state = lm.unigram_state
        word = lm.word_id(tiny_task.grammar.vocabulary[0])
        sink.on_lm_walk(state, word, 0, False)
        probes = sink.lookup_model.stats.arc_probes
        assert probes >= 1
        assert sink.lm_arc_cache.stats.accesses == probes
        assert sink.state_cache.stats.accesses == 1
        assert sink.sram.olt_accesses == 1
        sink.on_lm_walk(state, word, 0, False)
        assert sink.lm_arc_cache.stats.accesses == probes + 1
        assert sink.state_cache.stats.accesses == 1
        assert sink.sram.olt_accesses == 2
        counted = sink.finish_utterance()
        assert counted == LookupCounts(
            lookups=2, arc_probes=probes + 1, olt_hits=1, olt_misses=1
        )
        assert sink.lookup_model.stats == LookupCounts()

    def test_finish_utterance_flushes_tokens(self, tiny_task, layout):
        sink = UnfoldSink(UNFOLD.scaled(1 / 16), layout, tiny_task)
        sink.on_token_write()
        before = sink.dram.writes[Traffic.TOKENS]
        sink.finish_utterance()
        assert sink.dram.writes[Traffic.TOKENS] == before + 1

    def test_requires_lm_cache(self, tiny_task, layout):
        with pytest.raises(ValueError):
            UnfoldSink(REZA, layout, tiny_task)


class TestComposedSink:
    def test_no_olt_allowed(self, tiny_task, composed_layout):
        sink = ComposedSink(REZA.scaled(1 / 16), composed_layout, tiny_task)
        with pytest.raises(AssertionError):
            sink.on_lm_walk(0, 1, 0, False)
        assert sink.finish_utterance() == LookupCounts()

    def test_single_arc_cache(self, tiny_task, composed_layout):
        sink = ComposedSink(REZA.scaled(1 / 16), composed_layout, tiny_task)
        sink.on_epsilon_arc(5, 0, 0)
        assert sink.arc_cache.stats.accesses >= 1
        assert set(sink.caches()) == {"state_cache", "arc_cache", "token_cache"}


class TestTokenRecords:
    @pytest.mark.parametrize("record_bytes", [8, 16])
    @pytest.mark.parametrize("platform", ["unfold", "reza"])
    def test_a_token_write_is_one_configured_record(
        self, platform, record_bytes, tiny_task, layout, composed_layout
    ):
        """The sink sizes each write by its configuration: 64 records
        reach DRAM as ``64 * record_bytes`` bytes of whole lines."""
        base = UNFOLD if platform == "unfold" else REZA
        config = replace(
            base.scaled(1 / 16), lattice_record_bytes=record_bytes
        )
        if platform == "unfold":
            sink = UnfoldSink(config, layout, tiny_task)
        else:
            sink = ComposedSink(config, composed_layout, tiny_task)
        for _ in range(64):
            sink.on_token_write()
        sink.finish_utterance()
        assert sink.dram.writes[Traffic.TOKENS] * config.line_bytes == (
            64 * record_bytes
        )


class _FrameWork:
    """A TraceSink that counts each frame's work from its events:
    (survivors, expansions, LM arc probes, words emitted), one row per
    ``on_frame_end``; an expansion walks its AM state's emitting arcs
    (``task``'s), and the LM probes are the lookup model's (Table 3's
    32K-entry OLT) over its LM."""

    def __init__(self, task) -> None:
        self.model = LookupModel(
            LmWordArcs.from_graph(task.lm),
            self,
            UNFOLD.lookup_strategy,
            UNFOLD.offset_table_entries,
        )
        offsets = EmittingArcs.from_fst(task.am.fst).offsets
        self.emitting = (offsets[1:] - offsets[:-1]).tolist()
        self.rows: list[tuple[int, int, int, int]] = []
        self.active: list[int] = []
        self._row = [0, 0, 0, 0]

    def on_expand(self, am_state, lm_state):
        self._row[0] += 1
        self._row[1] += self.emitting[am_state]

    def on_epsilon_arc(self, am_state, lm_state, ordinal):
        self._row[1] += 1

    def on_token_write(self):
        self._row[3] += 1

    def on_lm_walk(self, lm_state, word_id, levels, pruned):
        self.model.on_lm_walk(lm_state, word_id, levels, pruned)

    def fetch_lm_arc(self, state, ordinal):
        self._row[2] += 1

    def fetch_lm_state(self, state):
        pass

    def access_olt(self, lm_state, word_id, hit):
        pass

    def on_frame_end(self, frame, active_tokens):
        self.rows.append(tuple(self._row))
        self.active.append(active_tokens)
        self._row = [0, 0, 0, 0]


class TestFrameWorkFromEvents:
    #: Decoder -> (sha256, rows) of the per-frame work rows the decoder
    #: itself recorded on the six tiny utterances (beam 14,
    #: ``max_active`` 800), before the search stopped keeping them.
    PINNED = {
        OnTheFlyDecoder: (
            "c13d794b52bf5fc3c4e43b8bd2212c44511c89344305bd6815787775df62aa0a",
            434,
        ),
        FullyComposedDecoder: (
            "130817bcab73ddca1f87c984b9241c32f01643172e8421e824d4d48ea5b0b47c",
            434,
        ),
    }

    @pytest.mark.parametrize(
        "cls", list(PINNED), ids=lambda cls: cls.__name__
    )
    def test_each_frames_work_is_in_its_trace_events(
        self, cls, tiny_task, tiny_scores
    ):
        """Every traced frame ends in ``on_frame_end``, so a sink
        recovers the per-frame work the search no longer records."""
        sink = _FrameWork(tiny_task)
        decoder = cls(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=14.0, max_active=800),
            sink=sink,
        )
        rows = []
        for scores in tiny_scores:
            sink.rows.clear()
            sink.active.clear()
            sink.model.stats = LookupCounts()
            stats = decoder.decode(scores).stats
            assert stats.lookup.arc_probes == 0
            assert len(sink.rows) == stats.frames
            assert sink.active == stats.active_history
            assert [sum(column) for column in zip(*sink.rows)] == [
                stats.am_state_fetches,
                stats.expansions,
                sink.model.stats.arc_probes,
                stats.words_emitted,
            ]
            rows += sink.rows
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (digest, len(rows)) == self.PINNED[cls]


class TestCycleModel:
    def test_both_platforms_realtime(self, tiny_task, tiny_scores):
        for report in (
            UnfoldSimulator(tiny_task, config=UNFOLD.scaled(1 / 64)).run(
                tiny_scores
            ),
            FullyComposedSimulator(tiny_task, config=REZA.scaled(1 / 64)).run(
                tiny_scores
            ),
        ):
            assert report.realtime_factor > 10

    def test_words_emitted_equal_lattice_nodes(self, tiny_task, tiny_scorer):
        """Every word a decode emits is one lattice node written: both
        decoders, both regimes, offline and streamed, on a tiny task
        and on one whose frontier reaches the numpy kernels.  A
        zero-frame decode is charged its DRAM stalls alone."""
        from repro.am import GmmAcousticModel
        from repro.asr import KALDI_TEDLIUM, build_task, decode_streaming
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
                    streamed, _ = decode_streaming(decoder, scores, 16)
                    nothing = decoder.decode(empty)
                    context = (task.name, cls.__name__, vectorized)
                    for result in (offline, streamed, nothing):
                        assert result.stats.words_emitted == len(
                            result.lattice
                        ), context
                    assert offline.stats.words_emitted > 0, context
                    assert nothing.stats.frames == 0, context
                    assert (
                        cycles_for(nothing.stats, LookupCounts(), busy)
                        .total_cycles
                        == busy.stall_cycles()
                    ), context
                    if kernels:
                        assert max(offline.stats.active_history) > (
                            SCALAR_FRONTIER_MAX
                        ), context

    def _stats(self, **kwargs):
        stats = DecoderStats()
        for key, value in kwargs.items():
            setattr(stats, key, value)
        return stats

    def test_components_sum(self):
        stats = self._stats(expansions=100, am_state_fetches=10, words_emitted=5)
        stats.lookup.backoff_arcs_taken = 3
        lookup = LookupCounts(arc_probes=20, olt_hits=7)
        dram = DramModel()
        dram.read_lines(Traffic.ARCS, 32)
        report = cycles_for(stats, lookup, dram)
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
        stats = self._stats()
        probing = LookupCounts(arc_probes=100)
        hitting = LookupCounts(olt_hits=100)
        dram = DramModel()
        assert (
            cycles_for(stats, probing, dram).total_cycles
            > cycles_for(stats, hitting, dram).total_cycles
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
