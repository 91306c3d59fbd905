"""Registry of every reproduced experiment.

``run_all`` regenerates the full evaluation section in one pass — the
driver behind EXPERIMENTS.md and the ``repro-experiments`` entry point.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    ablation_lattice_format,
    ablation_lm_lookup,
    ablation_two_pass,
    ablation_preemptive_pruning,
    fig01_time_breakdown,
    fig02_dataset_sizes,
    fig06_cache_miss_sweep,
    fig07_offset_table_sweep,
    fig08_memory_reduction,
    fig09_search_energy,
    fig10_power_breakdown,
    fig11_bandwidth,
    fig12_overall_time,
    fig13_overall_energy,
    table1_wfst_sizes,
    table2_compressed_sizes,
    table5_latency,
    table6_wer,
)
from repro.experiments.common import ExperimentResult

#: experiment id -> (runner, one-line description)
EXPERIMENTS: dict[str, tuple[Callable[[], ExperimentResult], str]] = {
    "fig01": (fig01_time_breakdown.run, "GPU decode-time breakdown"),
    "fig02": (fig02_dataset_sizes.run, "dataset composition (WFST dominates)"),
    "table1": (table1_wfst_sizes.run, "AM/LM vs composed WFST sizes"),
    "table2": (table2_compressed_sizes.run, "compressed sizes comparison"),
    "fig06": (fig06_cache_miss_sweep.run, "cache miss ratio vs capacity"),
    "fig07": (fig07_offset_table_sweep.run, "Offset Lookup Table sweep"),
    "fig08": (fig08_memory_reduction.run, "four storage configurations"),
    "fig09": (fig09_search_energy.run, "search energy per platform"),
    "fig10": (fig10_power_breakdown.run, "power breakdown"),
    "fig11": (fig11_bandwidth.run, "memory bandwidth by class"),
    "table5": (table5_latency.run, "per-utterance latency"),
    "table6": (table6_wer.run, "word error rate"),
    "fig12": (fig12_overall_time.run, "overall pipeline time"),
    "fig13": (fig13_overall_energy.run, "overall pipeline energy"),
    "ablation-preemptive": (
        ablation_preemptive_pruning.run,
        "preemptive back-off pruning",
    ),
    "ablation-lookup": (ablation_lm_lookup.run, "LM arc-fetch strategies"),
    "ablation-two-pass": (
        ablation_two_pass.run,
        "one-pass vs two-pass composition",
    ),
    "ablation-lattice": (
        ablation_lattice_format.run,
        "compact vs raw lattice records",
    ),
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        )
    runner, _ = EXPERIMENTS[experiment_id]
    return runner()


def run_all() -> list[ExperimentResult]:
    return [runner() for runner, _ in EXPERIMENTS.values()]
