"""Table 6: word error rate per decoder.

Also verifies the paper's accuracy claim: the on-the-fly decoder with
quantized weights matches the fully-composed decoder's accuracy (the
paper reports a WER difference below 0.01%).
"""

from __future__ import annotations

from repro.accel import SIMULATED_SEARCH
from repro.asr.wer import word_error_rate
from repro.core.decoder import OnTheFlyDecoder
from repro.experiments.common import ExperimentResult, TaskBundle, paper_bundles

EXPERIMENT_ID = "table6"
TITLE = "Word error rate (%)"


def run(bundles: list[TaskBundle] | None = None) -> ExperimentResult:
    bundles = bundles or paper_bundles()
    rows = []
    for bundle in bundles:
        refs = bundle.references
        unfold_hyps = [r.words for r in bundle.unfold_report().results]
        reza_hyps = [r.words for r in bundle.reza_report().results]
        unfold_wer = word_error_rate(refs, unfold_hyps)
        reza_wer = word_error_rate(refs, reza_hyps)
        # The paper's <0.01% claim: decode through the Section 3.4
        # bit-packed (6-bit quantized) models.
        q_am, q_lm = bundle.quantized_graphs()
        q_decoder = OnTheFlyDecoder(q_am, q_lm, SIMULATED_SEARCH)
        q_hyps = [q_decoder.decode(s).words for s in bundle.scores]
        quantized_wer = word_error_rate(refs, q_hyps)
        rows.append(
            {
                "task": bundle.name,
                "unfold_wer_pct": 100 * unfold_wer,
                "fully_composed_wer_pct": 100 * reza_wer,
                "quantized_wer_pct": 100 * quantized_wer,
                "delta_pct": 100 * abs(unfold_wer - reza_wer),
                "quant_delta_pct": 100 * abs(quantized_wer - unfold_wer),
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=(
            "paper: WER 10.6-27.7% across tasks; on-the-fly vs composed "
            "difference negligible (<0.01%)"
        ),
    )
