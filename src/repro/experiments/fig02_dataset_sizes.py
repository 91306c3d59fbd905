"""Figure 2: dataset composition — the WFST dominates.

Per decoder, the size of the acoustic scorer's parameters versus the
(offline-composed) WFST.  The paper measures 87-97% of the ASR dataset
being WFST; the same shape must emerge from our tasks.
"""

from __future__ import annotations

from repro.asr.dataset import measure_component_sizes
from repro.experiments.common import ExperimentResult, TaskBundle, paper_bundles

EXPERIMENT_ID = "fig02"
TITLE = "Dataset composition: scorer vs composed WFST"


def run(bundles: list[TaskBundle] | None = None) -> ExperimentResult:
    bundles = bundles or paper_bundles()
    rows = []
    for bundle in bundles:
        sizes = measure_component_sizes(bundle.task, bundle.scorer)
        rows.append(
            {
                "task": bundle.name,
                "scorer": sizes.scorer_kind,
                "scorer_kb": sizes.scorer_bytes / 1024,
                "wfst_mb": sizes.composed_wfst_bytes / 2**20,
                "wfst_share_pct": 100 * sizes.wfst_share,
                # Decode-time lookup state (not stored dataset).
                "olt_kb": bundle.unfold_config.offset_table_bytes / 1024,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes="paper: WFST is 87-97% of the total ASR dataset; the olt "
        "column is decode-time state",
    )
