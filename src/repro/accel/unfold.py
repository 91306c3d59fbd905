"""The UNFOLD accelerator simulator, and what it shares with the baseline.

Couples the functional on-the-fly decoder to the memory system of
Figure 4 (via :class:`~repro.accel.sink.UnfoldSink`), then converts the
observed activity into cycles, energy, power, bandwidth and area — the
quantities Sections 5.1-5.2 report.

The conversion is the same for the fully-composed baseline
(:class:`~repro.accel.fully_composed.FullyComposedSimulator`), so it is
written once here: :class:`_Simulator` holds the per-utterance run
loop, the area formula (driven by the configuration alone) and the
energy components both platforms have.  A platform supplies its
layout, its traced decoder and sink, and the SRAM components only it
has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.config import UNFOLD, AcceleratorConfig
from repro.accel.energy import (
    EnergyBreakdown,
    FLOAT_OP_PJ,
    PIPELINE_AREA_MM2,
    PIPELINE_LEAK_MW,
    PIPELINE_OP_PJ,
    sram_area_mm2,
    sram_leakage_mw,
    sram_read_energy_pj,
)
from repro.accel.layout import OnTheFlyLayout
from repro.accel.lookup import LookupCounts
from repro.accel.pipeline import cycles_for
from repro.accel.sink import UnfoldSink
from repro.accel.stats import RunReport, UtteranceTiming
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.accel.sink import _SinkCore
    from repro.asr.task import AsrTask
from repro.core.decoder import DecoderConfig, DecoderStats, OnTheFlyDecoder

#: The search every simulated run makes unless told otherwise (the
#: experiments ``replace()`` fields of it).  Its histogram-pruning cap
#: stands for the hardware's own bound on the frontier (hash-table
#: capacity, overflow buffer); an uncapped beam on the noisier tasks
#: lets the frontier explode and adds only losing hypotheses.
SIMULATED_SEARCH = DecoderConfig(beam=14.0, max_active=800)


class _Simulator:
    """The run loop, area and shared energy of both simulated platforms.

    A platform is a dataclass with ``task``, ``config`` and
    ``decoder_config`` fields that builds its ``layout`` and defines
    ``_traced_decoder()`` (a fresh sink, and a decoder that reports to
    it) and ``_own_sram_pj(sink, seconds)`` (the picojoules of its arc
    caches and of its Offset Lookup Table).
    """

    task: "AsrTask"
    config: AcceleratorConfig
    decoder_config: DecoderConfig

    @property
    def dataset_bytes(self) -> int:
        return self.layout.total_bytes

    def run(self, score_matrices: list[np.ndarray]) -> RunReport:
        """Simulate decoding every utterance, reusing warm caches."""
        sink, decoder = self._traced_decoder()
        report = RunReport(platform=self.config.name, task_name=self.task.name)
        totals = DecoderStats()
        lines_seen = 0
        for scores in score_matrices:
            result = decoder.decode(scores)
            report.results.append(result)
            lookup = sink.finish_utterance()
            report.lookup_by_utterance.append(lookup)
            report.lookup += lookup
            _accumulate(totals, result.stats)
            delta = _DramDelta(sink.dram.total_lines - lines_seen, sink.dram.config)
            lines_seen = sink.dram.total_lines
            cycles = cycles_for(result.stats, lookup, delta)
            report.utterances.append(
                UtteranceTiming(
                    frames=result.stats.frames,
                    decode_seconds=cycles.seconds(self.config.frequency_hz),
                )
            )
        report.decoder_stats = totals
        report.miss_ratios = {
            name: cache.stats.miss_ratio for name, cache in sink.caches().items()
        }
        report.dram_bytes_by_class = sink.dram.bytes_by_class()
        report.energy = self._energy(
            sink, totals, report.lookup, report.decode_seconds
        )
        report.area_mm2 = self._area()
        return report

    def _energy(
        self,
        sink: "_SinkCore",
        stats: DecoderStats,
        lookup: LookupCounts,
        seconds: float,
    ) -> EnergyBreakdown:
        config = self.config
        arc_caches, offset_lookup_table = self._own_sram_pj(sink, seconds)
        # The baseline resolves no LM arc at decode time, so its lookup
        # counts are zero and add nothing here.
        pipeline_ops = (
            stats.expansions
            + stats.tokens_created
            + stats.words_emitted
            + lookup.arc_probes
        )
        float_ops = 4 * stats.expansions + 3 * stats.lookup.backoff_arcs_taken
        pj = {
            "state_cache": _sram_pj(
                config.state_cache_kb * 1024,
                sink.state_cache.stats.accesses,
                seconds,
            ),
            "arc_caches": arc_caches,
            "token_cache": _sram_pj(
                config.token_cache_kb * 1024,
                sink.token_cache.stats.accesses,
                seconds,
            ),
            "hash_tables": _sram_pj(
                config.hash_table_kb * 1024, sink.sram.hash_accesses, seconds
            ),
            "offset_lookup_table": offset_lookup_table,
            "pipeline": (
                pipeline_ops * PIPELINE_OP_PJ
                + float_ops * FLOAT_OP_PJ
                + PIPELINE_LEAK_MW * 1e-3 * seconds * 1e12
            ),
            "main_memory": sink.dram.access_energy_pj()
            + sink.dram.background_energy_pj(seconds),
        }
        return EnergyBreakdown(
            by_component={k: v * 1e-12 for k, v in pj.items()}, seconds=seconds
        )

    def _area(self) -> float:
        """Pipeline logic plus every SRAM the configuration sizes."""
        config = self.config
        total = PIPELINE_AREA_MM2
        for kb in (
            config.state_cache_kb,
            config.am_arc_cache_kb,
            config.lm_arc_cache_kb,
            config.token_cache_kb,
            config.hash_table_kb,
            config.acoustic_buffer_kb,
        ):
            if kb:
                total += sram_area_mm2(kb * 1024)
        if config.offset_table_entries:
            total += sram_area_mm2(config.offset_table_bytes)
        return total


@dataclass
class UnfoldSimulator(_Simulator):
    """Cycle-level simulation of UNFOLD decoding a test set."""

    task: "AsrTask"
    config: AcceleratorConfig = field(default_factory=lambda: UNFOLD)
    decoder_config: DecoderConfig = SIMULATED_SEARCH

    def __post_init__(self) -> None:
        self.layout = OnTheFlyLayout.build(self.task)

    def _traced_decoder(self) -> tuple[UnfoldSink, OnTheFlyDecoder]:
        sink = UnfoldSink(self.config, self.layout, self.task)
        decoder = OnTheFlyDecoder(
            self.task.am, self.task.lm, self.decoder_config, sink=sink
        )
        return sink, decoder

    def _own_sram_pj(
        self, sink: UnfoldSink, seconds: float
    ) -> tuple[float, float]:
        config = self.config
        am_bytes = config.am_arc_cache_kb * 1024
        lm_bytes = config.lm_arc_cache_kb * 1024
        arc_caches = (
            sink.am_arc_cache.stats.accesses * sram_read_energy_pj(am_bytes)
            + sink.lm_arc_cache.stats.accesses * sram_read_energy_pj(lm_bytes)
            + (sram_leakage_mw(am_bytes) + sram_leakage_mw(lm_bytes))
            * 1e-3
            * seconds
            * 1e12
        )
        olt_bytes = max(1, config.offset_table_bytes)
        return arc_caches, _sram_pj(olt_bytes, sink.sram.olt_accesses, seconds)


def _sram_pj(capacity_bytes: int, accesses: int, seconds: float) -> float:
    """Dynamic plus leakage picojoules of one SRAM over ``seconds``."""
    dynamic = accesses * sram_read_energy_pj(capacity_bytes)
    leak = sram_leakage_mw(capacity_bytes) * 1e-3 * seconds * 1e12
    return dynamic + leak


def _accumulate(total: DecoderStats, new: DecoderStats) -> None:
    total.frames += new.frames
    total.tokens_created += new.tokens_created
    total.tokens_recombined += new.tokens_recombined
    total.beam_pruned += new.beam_pruned
    total.preemptive_pruned += new.preemptive_pruned
    total.expansions += new.expansions
    total.words_emitted += new.words_emitted
    total.am_state_fetches += new.am_state_fetches
    total.active_history.extend(new.active_history)
    total.lookup.lookups += new.lookup.lookups
    total.lookup.backoff_arcs_taken += new.lookup.backoff_arcs_taken


class _DramDelta:
    """Per-utterance view over a cumulative DRAM model."""

    def __init__(self, lines: int, config) -> None:
        self._lines = lines
        self.config = config

    def stall_cycles(self) -> float:
        return self._lines * self.config.latency_cycles / self.config.in_flight
