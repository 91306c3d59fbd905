"""Section 6 ablation: one-pass vs two-pass on-the-fly composition.

The paper picks the one-pass strategy because the two-pass scheme's
serial rescoring stage inflates per-utterance latency.  This ablation
measures both on the same utterances: recognition quality (WER) and the
latency structure (the second pass cannot start before the first ends).
"""

from __future__ import annotations

from repro.accel import UNFOLD, UnfoldSimulator
from repro.asr.task import KALDI_VOXFORGE
from repro.asr.wer import word_error_rate
from repro.core.decoder import DecoderConfig
from repro.core.two_pass import TwoPassDecoder
from repro.experiments.common import MAX_ACTIVE, ExperimentResult, TaskBundle, get_bundle

EXPERIMENT_ID = "ablation-two-pass"
TITLE = "One-pass vs two-pass on-the-fly composition"


def run(bundle: TaskBundle | None = None) -> ExperimentResult:
    bundle = bundle or get_bundle(KALDI_VOXFORGE)
    config = DecoderConfig(beam=14.0, max_active=MAX_ACTIVE)
    # The one-pass work counts LM arc probes, which UNFOLD's lookup
    # hardware makes: this arm decodes on the simulator (Table 3's
    # 32K-entry OLT).
    one_pass = UnfoldSimulator(
        bundle.task, config=UNFOLD, decoder_config=config
    )
    two_pass = TwoPassDecoder(
        bundle.task.am, bundle.task.lm, bundle.task.ngram, config
    )

    refs = bundle.references
    one_results = one_pass.run(bundle.scores).results
    two_results = [two_pass.decode(s) for s in bundle.scores]

    one_wer = word_error_rate(refs, [r.words for r in one_results])
    two_wer = word_error_rate(refs, [r.words for r in two_results])

    # Latency structure: the one-pass decoder finishes when the frames
    # do; the two-pass decoder appends a rescoring stage proportional to
    # the lattice it must re-read.
    one_work = sum(r.stats.expansions + r.stats.lookup.arc_probes for r in one_results)
    two_first = sum(r.stats.expansions for r in two_results)
    two_rescore = sum(len(r.lattice) for r in two_results)

    rows = [
        {
            "strategy": "one-pass (UNFOLD)",
            "wer_pct": 100 * one_wer,
            "search_work": one_work,
            "serial_rescore_work": 0,
        },
        {
            "strategy": "two-pass (Ljolje et al.)",
            "wer_pct": 100 * two_wer,
            "search_work": two_first,
            "serial_rescore_work": two_rescore,
        },
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=(
            "paper (Section 6): two-pass adds a serial rescoring stage that "
            "hurts latency, so UNFOLD implements one-pass in hardware"
        ),
    )
