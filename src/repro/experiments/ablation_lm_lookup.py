"""Section 5.1 ablation: LM arc-fetch strategy.

The paper's progression: a linear-search on-the-fly decoder is ~10x
slower than the fully-composed baseline, binary search cuts that to
~3x, and the Offset Lookup Table plus preemptive pruning reach ~1.18x.
"""

from __future__ import annotations

from dataclasses import replace

from repro.accel import LookupStrategy, UnfoldSimulator
from repro.asr.task import KALDI_VOXFORGE
from repro.core.decoder import DecoderConfig
from repro.experiments.common import MAX_ACTIVE, ExperimentResult, TaskBundle, get_bundle

EXPERIMENT_ID = "ablation-lookup"
TITLE = "LM arc-fetch strategy vs the fully-composed baseline"


def run(bundle: TaskBundle | None = None) -> ExperimentResult:
    bundle = bundle or get_bundle(KALDI_VOXFORGE)
    baseline_seconds = bundle.reza_report().decode_seconds
    rows = []
    variants = [
        ("linear", LookupStrategy.LINEAR, False),
        ("binary", LookupStrategy.BINARY, False),
        ("olt", LookupStrategy.OFFSET_TABLE, False),
        ("olt+preemptive", LookupStrategy.OFFSET_TABLE, True),
    ]
    for name, strategy, preemptive in variants:
        sim = UnfoldSimulator(
            bundle.task,
            config=replace(bundle.unfold_config, lookup_strategy=strategy),
            decoder_config=DecoderConfig(
                beam=14.0, preemptive_pruning=preemptive, max_active=MAX_ACTIVE
            ),
        )
        report = sim.run(bundle.scores)
        rows.append(
            {
                "strategy": name,
                "slowdown_vs_baseline_x": report.decode_seconds / baseline_seconds,
                "avg_probes_per_lookup": report.decoder_stats.lookup.avg_probes_per_lookup,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes="paper: linear ~10x, binary ~3x, +OLT+pruning ~1.18x slowdown",
    )
