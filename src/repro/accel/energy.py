"""Energy, power and area models for the accelerator's components.

The paper derives per-component numbers from Design Compiler (pipeline
logic, 32 nm) and CACTI (SRAM structures); we use CACTI-shaped scaling
laws with representative 32 nm constants.  Absolute joules are not the
reproduction target — the relative structure is: SRAM access energy
grows roughly with the square root of capacity, DRAM accesses cost
orders of magnitude more than SRAM hits, and leakage/area scale with
capacity.  Those relationships are what drive Figures 9 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Reference point for the SRAM scaling law: a 32 KB, 4-way cache.
_REF_CAPACITY = 32 * 1024
_REF_READ_PJ = 10.0
_REF_LEAK_MW_PER_KB = 0.012
_REF_AREA_MM2_PER_KB = 0.0045

#: Pipeline-logic constants (Design Compiler scale @ 32 nm, 800 MHz).
PIPELINE_OP_PJ = 3.0  # one pipeline-stage operation (issue, compare...)
FLOAT_OP_PJ = 1.5  # one FP add/compare in Likelihood Evaluation
PIPELINE_LEAK_MW = 18.0
PIPELINE_AREA_MM2 = 3.1


def sram_read_energy_pj(capacity_bytes: int) -> float:
    """Per-access read energy; ~sqrt growth with capacity (CACTI shape)."""
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    return _REF_READ_PJ * (capacity_bytes / _REF_CAPACITY) ** 0.5


def sram_leakage_mw(capacity_bytes: int) -> float:
    return _REF_LEAK_MW_PER_KB * capacity_bytes / 1024


def sram_area_mm2(capacity_bytes: int) -> float:
    return _REF_AREA_MM2_PER_KB * capacity_bytes / 1024


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules per component for one run (Figure 10's categories)."""

    by_component: dict[str, float]  # joules
    seconds: float

    @property
    def total_joules(self) -> float:
        return sum(self.by_component.values())

    def power_mw(self) -> dict[str, float]:
        if self.seconds <= 0:
            return {k: 0.0 for k in self.by_component}
        return {
            k: v / self.seconds * 1e3 for k, v in self.by_component.items()
        }

    @property
    def total_power_mw(self) -> float:
        return sum(self.power_mw().values())


def mj_per_second_of_speech(total_joules: float, speech_seconds: float) -> float:
    """The paper's energy metric (Figures 9 and 13)."""
    if speech_seconds <= 0:
        raise ValueError("speech_seconds must be positive")
    return total_joules * 1e3 / speech_seconds
