"""Analytical Tegra X1 model.

The paper's GPU reference runs CUDA implementations of the Viterbi
search and the GMM/DNN/RNN scorers, with energy measured on the GPU
power rail.  We model the same quantities analytically:

* the scorer kernels are dense math — time follows FLOPs at a realistic
  achieved efficiency;
* the Viterbi kernel is an irregular, memory-bound graph traversal —
  time follows hypothesis expansions at a calibrated throughput (the
  constant reproduces the paper's "9x faster than real time");
* energy is power x time per kernel class.

This is the substitution for hardware we do not have: it exercises the
same comparison code paths (Figures 1, 9, 12, 13) with a documented,
parameterized stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.config import GpuConfig
from repro.accel.stats import RunReport, UtteranceTiming
from repro.core.decoder import DecoderStats


@dataclass(frozen=True)
class GpuKernelReport:
    """Time and energy of one kernel class over a test set."""

    seconds: float
    joules: float

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


@dataclass
class GpuModel:
    """Tegra X1 timing/energy for both pipeline stages."""

    config: GpuConfig = field(default_factory=GpuConfig)

    # -- Viterbi search kernel ------------------------------------------------

    def search_time_seconds(self, stats: DecoderStats) -> float:
        work = stats.expansions + stats.lookup.arc_probes
        return work / self.config.expansions_per_second

    def search_run_report(
        self, per_utterance: list[DecoderStats], task_name: str
    ) -> RunReport:
        """A RunReport-shaped view of GPU Viterbi decoding (Figure 9)."""
        report = RunReport(platform=self.config.name, task_name=task_name)
        total_joules = 0.0
        for stats in per_utterance:
            seconds = self.search_time_seconds(stats)
            total_joules += seconds * self.config.search_power_w
            report.utterances.append(
                UtteranceTiming(frames=stats.frames, decode_seconds=seconds)
            )
        from repro.accel.energy import EnergyBreakdown

        report.energy = EnergyBreakdown(
            by_component={"gpu": total_joules},
            seconds=report.decode_seconds,
        )
        return report

    # -- acoustic scoring kernels ----------------------------------------------

    def scorer_time_seconds(self, flops_per_frame: float, frames: int) -> float:
        peak = self.config.frequency_hz * self.config.flops_per_cycle
        achieved = peak * self.config.scorer_efficiency
        return flops_per_frame * frames / achieved

    def scorer_report(
        self, flops_per_frame: float, frames: int
    ) -> GpuKernelReport:
        seconds = self.scorer_time_seconds(flops_per_frame, frames)
        return GpuKernelReport(
            seconds=seconds, joules=seconds * self.config.scorer_power_w
        )
