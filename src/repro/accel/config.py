"""Accelerator configurations (Table 3) and the GPU reference (Table 4).

Two hardware points are modelled:

* ``UNFOLD``: the paper's design — separate AM/LM arc caches, Offset
  Lookup Table, compressed datasets, compact lattice records, 800 MHz;
* ``REZA`` (Reza et al. [34], MICRO-49): the fully-composed baseline —
  one big arc cache, larger token cache and hash tables, raw lattice
  records, 600 MHz.

Because this reproduction's datasets are megabytes rather than
gigabytes, each configuration can be *scaled*: dividing every capacity
by the dataset ratio preserves the cache-pressure relationships the
paper's Figures 6 and 9-11 measure.  ``scaled_for`` picks the factor
from a task's actual dataset size versus the paper's ~1 GB reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.accel.cache import CacheConfig
from repro.accel.lookup import LookupStrategy
from repro.core.lattice import COMPACT_RECORD_BYTES, RAW_RECORD_BYTES

#: The paper's fully-composed datasets are ~0.5-1.2 GB; scaling anchors
#: cache pressure to this reference.
PAPER_DATASET_BYTES = 1 << 30


@dataclass(frozen=True)
class AcceleratorConfig:
    """One hardware design point."""

    name: str
    frequency_hz: float
    state_cache_kb: int
    state_cache_ways: int
    am_arc_cache_kb: int
    am_arc_cache_ways: int
    lm_arc_cache_kb: int  # 0 = no dedicated LM cache (baseline)
    lm_arc_cache_ways: int
    token_cache_kb: int
    token_cache_ways: int
    hash_table_kb: int
    hash_entries: int
    offset_table_entries: int  # 0 = no OLT (baseline)
    #: Bytes per word-lattice record the Token Issuer writes: Price's
    #: compact layout [22] (UNFOLD) or the baseline's raw one.
    lattice_record_bytes: int
    #: How the LM lookup hardware searches a state's word arcs
    #: (:mod:`repro.accel.lookup`); ``OFFSET_TABLE`` searches binary
    #: alone when the configuration has no OLT.
    lookup_strategy: LookupStrategy = LookupStrategy.OFFSET_TABLE
    acoustic_buffer_kb: int = 64
    line_bytes: int = 64

    def cache_config(self, which: str) -> CacheConfig:
        sizes = {
            "state": (self.state_cache_kb, self.state_cache_ways),
            "am_arc": (self.am_arc_cache_kb, self.am_arc_cache_ways),
            "lm_arc": (self.lm_arc_cache_kb, self.lm_arc_cache_ways),
            "token": (self.token_cache_kb, self.token_cache_ways),
        }
        kb, ways = sizes[which]
        if kb <= 0:
            raise ValueError(f"{self.name} has no {which} cache")
        return CacheConfig(
            name=which,
            capacity_bytes=kb * 1024,
            associativity=ways,
            line_bytes=self.line_bytes,
        )

    @property
    def has_lm_cache(self) -> bool:
        return self.lm_arc_cache_kb > 0

    @property
    def has_offset_table(self) -> bool:
        return self.offset_table_entries > 0

    @property
    def offset_table_bytes(self) -> int:
        """The OLT's storage: a valid bit, a 24-bit tag and a 23-bit
        arc offset, 6 bytes an entry (Section 3.5: 32K entries take
        192 KB)."""
        return self.offset_table_entries * 6

    @property
    def total_sram_kb(self) -> int:
        olt_kb = self.offset_table_bytes // 1024
        return (
            self.state_cache_kb
            + self.am_arc_cache_kb
            + self.lm_arc_cache_kb
            + self.token_cache_kb
            + self.hash_table_kb
            + self.acoustic_buffer_kb
            + olt_kb
        )

    def scaled(self, factor: float) -> "AcceleratorConfig":
        """Shrink capacities by ``factor``, respecting cache geometry."""
        if factor <= 0 or factor > 1:
            raise ValueError("factor must be in (0, 1]")

        def scale_kb(kb: int, ways: int) -> int:
            if kb == 0:
                return 0
            target = max(kb * factor, ways * self.line_bytes / 1024)
            # Round up to a power of two (valid geometry, stable sweeps).
            result = 1
            while result < target:
                result *= 2
            return result

        def scale_entries(entries: int) -> int:
            if entries == 0:
                return 0
            target = max(64, int(entries * factor))
            result = 1
            while result < target:
                result *= 2
            return result

        return replace(
            self,
            name=f"{self.name}-x{factor:g}",
            state_cache_kb=scale_kb(self.state_cache_kb, self.state_cache_ways),
            am_arc_cache_kb=scale_kb(self.am_arc_cache_kb, self.am_arc_cache_ways),
            lm_arc_cache_kb=scale_kb(self.lm_arc_cache_kb, self.lm_arc_cache_ways),
            token_cache_kb=scale_kb(self.token_cache_kb, self.token_cache_ways),
            hash_table_kb=scale_kb(self.hash_table_kb, 2),
            hash_entries=scale_entries(self.hash_entries),
            offset_table_entries=scale_entries(self.offset_table_entries),
        )

    def scaled_for(self, dataset_bytes: int) -> "AcceleratorConfig":
        """Scale to a reproduction-sized dataset (see module docstring)."""
        factor = min(1.0, dataset_bytes / PAPER_DATASET_BYTES)
        return self.scaled(max(factor, 1e-4))


#: Table 3, UNFOLD column.
UNFOLD = AcceleratorConfig(
    name="unfold",
    frequency_hz=800e6,
    state_cache_kb=256,
    state_cache_ways=4,
    am_arc_cache_kb=512,
    am_arc_cache_ways=8,
    lm_arc_cache_kb=32,
    lm_arc_cache_ways=4,
    token_cache_kb=128,
    token_cache_ways=2,
    hash_table_kb=576,
    hash_entries=32 * 1024,
    offset_table_entries=32 * 1024,
    lattice_record_bytes=COMPACT_RECORD_BYTES,
)

#: Table 3, Reza et al. column (MICRO-49 baseline).
REZA = AcceleratorConfig(
    name="reza",
    frequency_hz=600e6,
    state_cache_kb=512,
    state_cache_ways=4,
    am_arc_cache_kb=1024,  # the single unified arc cache
    am_arc_cache_ways=4,
    lm_arc_cache_kb=0,
    lm_arc_cache_ways=0,
    token_cache_kb=512,
    token_cache_ways=2,
    hash_table_kb=768,
    hash_entries=32 * 1024,
    offset_table_entries=0,
    lattice_record_bytes=RAW_RECORD_BYTES,
)


@dataclass(frozen=True)
class GpuConfig:
    """Table 4: NVIDIA Tegra X1."""

    name: str = "tegra-x1"
    frequency_hz: float = 1.0e9
    num_sms: int = 2
    threads_per_sm: int = 2048
    flops_per_cycle: float = 512.0  # 256 FMA units x 2
    #: Average power while running the Viterbi search (measured via the
    #: INA3221 rail in the paper's methodology).
    search_power_w: float = 2.2
    #: Average power while running GMM/DNN/RNN kernels.
    scorer_power_w: float = 3.5
    #: Achieved fraction of peak FLOPs on scorer kernels.
    scorer_efficiency: float = 0.25
    #: Search throughput: hypotheses expanded per second (memory-bound
    #: irregular kernel; calibrated to the paper's 9x-real-time figure).
    expansions_per_second: float = 110e6
