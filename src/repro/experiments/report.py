"""EXPERIMENTS.md generation.

Runs every registered experiment and renders a markdown report pairing
the paper's reported values with this reproduction's measurements —
the artifact the repository's EXPERIMENTS.md is produced from:

    python -m repro.experiments.report [output-path]
"""

from __future__ import annotations

import sys
import time

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS

#: The paper's reported values per experiment, for side-by-side reading.
PAPER_CLAIMS: dict[str, str] = {
    "fig01": "Viterbi search is >=78% of Kaldi decode time (GMM/DNN) and "
    ">=55% of EESEN's (RNN) on the Tegra X1.",
    "fig02": "The WFST is 87-97% of the ASR dataset; >1 GB for the large "
    "tasks.",
    "table1": "AM+LM vs composed (MB): Kaldi-TEDLIUM 33+66 vs 1090 (11x); "
    "Librispeech 40+59 vs 496 (5.0x); Voxforge 2.8+2.3 vs 37 (7.3x); "
    "EESEN-TEDLIUM 34+102 vs 1226 (9.0x).",
    "table2": "Compressed on-the-fly vs compressed composed (MB): 32.4 vs "
    "269.8 (TEDLIUM), 21.3 vs 136.8 (Librispeech), 1.3 vs 9.4 (Voxforge), "
    "39.4 vs 414.3 (EESEN); 8.8x average.",
    "fig06": "State/arc caches fall below 1% miss at 1 MB; the token cache "
    "floors near 12% on compulsory misses.",
    "fig07": "OLT miss ratio falls and speedup rises with entries; 32K "
    "entries (192 KB) chosen, ~1.3x speedup over the smallest table.",
    "fig08": "31x average dataset reduction (23.3x-34.7x) vs the "
    "uncompressed fully-composed baseline.",
    "fig09": "UNFOLD saves 28% search energy on average vs Reza et al. "
    "(2.5%-77% per task) and ~10x vs the Tegra X1.",
    "fig10": "Main-memory power shrinks most; the OLT dissipates ~5% of "
    "UNFOLD's total power.",
    "fig11": "71% average bandwidth reduction; 2.8x on EESEN-TEDLIUM "
    "(7.4 -> 2.6 GB/s).",
    "table5": "Avg/max latency (ms): accelerators answer in tens of ms "
    "(e.g. UNFOLD TEDLIUM 92.5 avg / 274 max), GPU in ~1-1.4 s.",
    "table6": "WER: TEDLIUM-Kaldi 22.59%, Librispeech 10.62%, Voxforge "
    "13.26%, TEDLIUM-EESEN 27.72%; on-the-fly+quantization changes WER "
    "<0.01%.",
    "fig12": "Accelerated pipelines decode ~3.4x faster than GPU-only; "
    "all three remain real-time.",
    "fig13": "~1.5x energy saving vs GPU-only; UNFOLD and Reza et al. "
    "nearly equal because the GPU scorer dominates.",
    "ablation-preemptive": "Preemptive pruning discards 22.5% of "
    "hypotheses and speeds decoding 16.3% with no accuracy change.",
    "ablation-lookup": "LM lookup slowdown vs fully-composed: linear "
    "~10x, binary ~3x, +OLT+preemptive pruning ~1.18x.",
    "ablation-two-pass": "Section 6: the two-pass strategy's serial "
    "rescoring stage hurts latency, motivating UNFOLD's one-pass "
    "hardware design.",
    "ablation-lattice": "Section 3.1/Figure 10: the compact lattice "
    "format of Price [22] cuts token traffic and Token Cache power.",
}


def render_markdown(results: list[ExperimentResult]) -> str:
    lines = [
        "# EXPERIMENTS — paper vs reproduction",
        "",
        "Regenerated by `python -m repro.experiments.report`. Absolute",
        "numbers differ by construction (synthetic laptop-scale tasks,",
        "parameterized energy models — see DESIGN.md); the *shape* of",
        "each result is the reproduction target.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        paper = PAPER_CLAIMS.get(result.experiment_id)
        if paper:
            lines.append(f"**Paper:** {paper}")
            lines.append("")
        lines.append("**Measured:**")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    output = argv[0] if argv else "EXPERIMENTS.md"
    results = []
    for experiment_id, (runner, description) in EXPERIMENTS.items():
        start = time.time()
        print(f"running {experiment_id} ({description})...", flush=True)
        results.append(runner())
        print(f"  done in {time.time() - start:.1f}s", flush=True)
    with open(output, "w") as stream:
        stream.write(render_markdown(results))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
