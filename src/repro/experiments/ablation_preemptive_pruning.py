"""Section 3.3 ablation: preemptive back-off pruning.

The paper: preemptive pruning discards 22.5% of hypotheses on average
and improves performance by 16.3%, with zero accuracy cost (only
hypotheses that would be beam-pruned anyway are discarded).
"""

from __future__ import annotations

from dataclasses import replace

from repro.accel import SIMULATED_SEARCH, UnfoldSimulator
from repro.experiments.common import ExperimentResult, TaskBundle, paper_bundles

EXPERIMENT_ID = "ablation-preemptive"
TITLE = "Preemptive back-off pruning: on vs off"


def run(bundles: list[TaskBundle] | None = None) -> ExperimentResult:
    bundles = bundles or paper_bundles()
    rows = []
    for bundle in bundles:
        with_pruning = UnfoldSimulator(
            bundle.task,
            config=bundle.unfold_config,
            decoder_config=replace(SIMULATED_SEARCH, preemptive_pruning=True),
        ).run(bundle.scores)
        without = UnfoldSimulator(
            bundle.task,
            config=bundle.unfold_config,
            decoder_config=replace(SIMULATED_SEARCH, preemptive_pruning=False),
        ).run(bundle.scores)
        on_stats = with_pruning.decoder_stats
        pruned_share = (
            on_stats.preemptive_pruned / max(1, on_stats.total_hypotheses)
        )
        same_words = [r.words for r in with_pruning.results] == [
            r.words for r in without.results
        ]
        rows.append(
            {
                "task": bundle.name,
                "hypotheses_pruned_pct": 100 * pruned_share,
                "speedup_pct": 100
                * (without.decode_seconds / with_pruning.decode_seconds - 1),
                "same_output": same_words,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes="paper: 22.5% of hypotheses pruned, 16.3% speedup, no accuracy loss",
    )
