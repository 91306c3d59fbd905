"""Cycle-level timing model.

The accelerator (Figure 4) is a decoupled fetch/expand/score/write
pipeline that sustains roughly one hypothesis expansion per cycle when
data is on chip.  Cycles are therefore modelled as the pipeline's issue
work plus the serializing costs the paper calls out — LM binary-search
probes (dependent fetches), back-off hops — plus DRAM stalls amortized
over the memory controller's in-flight window.

Per-event costs (in cycles) are the model's constants; they were chosen
so the relative overheads the paper reports emerge from first
principles: a linear-search decoder is probe-dominated (~10x), binary
search cuts probes to log2(arcs) (~3x), and the OLT removes most probes
entirely (~1.2x).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.dram import DramModel
from repro.core.decoder import DecoderStats

#: Cycles per pipelined hypothesis expansion (arc issue + likelihood +
#: token insert, fully overlapped).
EXPANSION_CYCLES = 1.0
#: Cycles per token-table (hash) probe.
HASH_CYCLES = 0.5
#: Cycles per LM arc probe: address generation + fetch + compare form a
#: dependent chain that cannot be pipelined across probes.
LM_PROBE_CYCLES = 4.0
#: Cycles per Offset Lookup Table hit (Section 3.1: "in one cycle").
OLT_HIT_CYCLES = 1.0
#: Cycles per back-off hop (the three FP units of Section 3.3).
BACKOFF_CYCLES = 1.0
#: Cycles to issue one state fetch.
STATE_FETCH_CYCLES = 0.5
#: Cycles per word-lattice write.
TOKEN_WRITE_CYCLES = 1.0


@dataclass(frozen=True)
class CycleReport:
    """Cycle count decomposition for one run."""

    expansion_cycles: float
    lookup_cycles: float
    backoff_cycles: float
    state_fetch_cycles: float
    token_cycles: float
    dram_stall_cycles: float

    @property
    def total_cycles(self) -> float:
        return (
            self.expansion_cycles
            + self.lookup_cycles
            + self.backoff_cycles
            + self.state_fetch_cycles
            + self.token_cycles
            + self.dram_stall_cycles
        )

    def seconds(self, frequency_hz: float) -> float:
        return self.total_cycles / frequency_hz


def cycles_for(stats: DecoderStats, dram: DramModel) -> CycleReport:
    """Convert decoder activity + memory stalls into cycles."""
    lookup = stats.lookup
    return CycleReport(
        expansion_cycles=stats.expansions * EXPANSION_CYCLES
        + stats.tokens_created * HASH_CYCLES,
        lookup_cycles=lookup.arc_probes * LM_PROBE_CYCLES
        + lookup.olt_hits * OLT_HIT_CYCLES,
        backoff_cycles=lookup.backoff_arcs_taken * BACKOFF_CYCLES,
        state_fetch_cycles=stats.am_state_fetches * STATE_FETCH_CYCLES,
        token_cycles=stats.words_emitted * TOKEN_WRITE_CYCLES,
        dram_stall_cycles=dram.stall_cycles(),
    )

