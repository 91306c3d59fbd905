"""Section 3.1 ablation: compact vs raw word-lattice records.

UNFOLD adopts Price's compact lattice representation [22]; the paper
credits it with part of the Token Cache power reduction in Figure 10.
This ablation decodes the same utterances on UNFOLD with both record
sizes (a hardware parameter, ``AcceleratorConfig.lattice_record_bytes``)
and compares token DRAM traffic and token-cache behaviour.
"""

from __future__ import annotations

from dataclasses import replace

from repro.accel import SIMULATED_SEARCH, Traffic, UnfoldSimulator
from repro.asr.task import KALDI_VOXFORGE
from repro.core.lattice import COMPACT_RECORD_BYTES, RAW_RECORD_BYTES
from repro.experiments.common import ExperimentResult, TaskBundle, get_bundle

EXPERIMENT_ID = "ablation-lattice"
TITLE = "Word-lattice record format: compact (Price [22]) vs raw"


def run(bundle: TaskBundle | None = None) -> ExperimentResult:
    bundle = bundle or get_bundle(KALDI_VOXFORGE)
    rows = []
    for label, record_bytes in (
        ("compact-8B", COMPACT_RECORD_BYTES),
        ("raw-16B", RAW_RECORD_BYTES),
    ):
        sim = UnfoldSimulator(
            bundle.task,
            config=replace(
                bundle.unfold_config, lattice_record_bytes=record_bytes
            ),
            # This exhibit has always searched at beam 12.
            decoder_config=replace(SIMULATED_SEARCH, beam=12.0),
        )
        report = sim.run(bundle.scores)
        rows.append(
            {
                "format": label,
                "token_dram_kb": report.dram_bytes_by_class[Traffic.TOKENS] / 1024,
                "token_cache_miss_pct": 100 * report.miss_ratios["token_cache"],
                "energy_mj_per_s": report.energy_mj_per_speech_second,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=(
            "paper (Figure 10): the compact format cuts Token Cache power "
            "'by a large extent'"
        ),
    )
