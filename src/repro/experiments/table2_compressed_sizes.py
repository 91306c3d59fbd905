"""Table 2: compressed sizes, on-the-fly vs fully-composed.

The paper compresses both representations with their best respective
techniques (Section 3.4 for the separate models, Price [23] for the
composed graph) and finds the on-the-fly datasets 8.8x smaller on
average.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, TaskBundle, paper_bundles

EXPERIMENT_ID = "table2"
TITLE = "Compressed WFST sizes (MB)"


def run(bundles: list[TaskBundle] | None = None) -> ExperimentResult:
    bundles = bundles or paper_bundles()
    rows = []
    ratios = []
    for bundle in bundles:
        sizing = bundle.sizing
        ratios.append(sizing.compression_vs_price)
        # Decode-time lookup state the on-the-fly configuration adds
        # (the OLT) — not in the stored dataset, but reported so the
        # size comparison stays honest.
        rows.append(
            {
                "task": bundle.name,
                "onthefly_comp_mb": sizing.onthefly_comp_bytes / 2**20,
                "fully_composed_comp_mb": sizing.composed_comp_bytes / 2**20,
                "ratio_x": sizing.compression_vs_price,
                "olt_kb": bundle.unfold_config.offset_table_bytes / 1024,
            }
        )
    rows.append(
        {
            "task": "average",
            "onthefly_comp_mb": None,
            "fully_composed_comp_mb": None,
            "ratio_x": sum(ratios) / len(ratios),
            "olt_kb": None,
        }
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes="paper: compressed on-the-fly is 8.8x smaller on average; "
        "the olt column is decode-time state, not stored dataset",
    )
