"""Figure 1: execution-time breakdown of software decoding on the GPU.

The paper's motivating measurement: on a Tegra X1, the Viterbi search
takes >78% of Kaldi's decode time (GMM and DNN systems) and >55% of
EESEN's (RNN system).  We regenerate it from the GPU model: search time
from the search-kernel throughput model, scorer time from the FLOP
model, using each task's preset scorer.
"""

from __future__ import annotations

from repro.accel import GpuModel
from repro.experiments.common import ExperimentResult, TaskBundle, paper_bundles

EXPERIMENT_ID = "fig01"
TITLE = "GPU decode-time breakdown: Viterbi vs acoustic scoring (%)"


def run(bundles: list[TaskBundle] | None = None) -> ExperimentResult:
    bundles = bundles or paper_bundles()
    gpu = GpuModel()
    rows = []
    for bundle in bundles:
        search_s = bundle.gpu_search_report().decode_seconds
        frames = bundle.unfold_report().decoder_stats.frames
        scorer_s = gpu.scorer_time_seconds(bundle.scorer.flops_per_frame, frames)
        total = search_s + scorer_s
        rows.append(
            {
                "task": bundle.name,
                "scorer": bundle.scorer.kind.value,
                "viterbi_pct": 100 * search_s / total,
                "scorer_pct": 100 * scorer_s / total,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes="paper: Viterbi >= 55% in every decoder (78%+ for Kaldi)",
    )
