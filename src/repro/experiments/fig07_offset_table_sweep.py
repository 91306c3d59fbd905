"""Figure 7: Offset Lookup Table capacity vs miss ratio and speedup.

The paper sweeps the OLT from a few K entries to 32K and picks 32K
(192 KB): miss ratio falls with capacity and decoding speeds up by
~1.3x over the smallest table.  We sweep the scaled equivalents and
report both curves.
"""

from __future__ import annotations

from dataclasses import replace

from repro.accel import UnfoldSimulator
from repro.asr.task import KALDI_VOXFORGE
from repro.core.decoder import DecoderConfig
from repro.experiments.common import MAX_ACTIVE, ExperimentResult, TaskBundle, get_bundle

EXPERIMENT_ID = "fig07"
TITLE = "Offset Lookup Table: entries vs miss ratio and speedup"

SWEEP_FACTORS = (0.125, 0.25, 0.5, 1.0)


def run(bundle: TaskBundle | None = None) -> ExperimentResult:
    bundle = bundle or get_bundle(KALDI_VOXFORGE)
    base_entries = bundle.unfold_config.offset_table_entries
    rows = []
    baseline_seconds = None
    for factor in SWEEP_FACTORS:
        entries = max(16, int(base_entries * factor))
        power = 1
        while power < entries:
            power *= 2
        sim = UnfoldSimulator(
            bundle.task,
            config=replace(bundle.unfold_config, offset_table_entries=power),
            decoder_config=DecoderConfig(beam=14.0, max_active=MAX_ACTIVE),
        )
        report = sim.run(bundle.scores)
        lookup = report.decoder_stats.lookup
        if baseline_seconds is None:
            baseline_seconds = report.decode_seconds
        rows.append(
            {
                "entries": power,
                "olt_miss_pct": 100 * (1 - lookup.olt_hit_ratio),
                "speedup_x": baseline_seconds / report.decode_seconds,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes="paper: miss ratio falls and speedup grows with table size",
    )
