"""Design-space exploration: pick cache and OLT sizes like Section 3.5.

Sweeps the UNFOLD cache hierarchy and the Offset Lookup Table over
capacities, reproducing the methodology behind the paper's Figures 6
and 7, and prints the Pareto view that justified Table 3's choices.

Run:
    python examples/design_space_sweep.py
"""

from dataclasses import replace

from repro.accel import UNFOLD, UnfoldSimulator
from repro.asr import build_scorer, build_task
from repro.asr.task import KALDI_VOXFORGE


def main() -> None:
    task = build_task(KALDI_VOXFORGE)
    scorer = build_scorer(task, oracle_gmm=True)
    utterances = task.test_set(6, max_words=6)
    scores = [scorer.score(u.features) for u in utterances]
    base = UNFOLD.scaled(1 / 64)

    print(f"task: {task.name}; design point: {base.name}\n")

    # --- Figure 6 style: arc-cache capacity sweep -------------------------
    print("AM arc cache capacity sweep:")
    print(f"{'capacity':>10s} {'miss%':>7s} {'energy mJ/s':>12s} {'area mm2':>9s}")
    for kb in (1, 2, 4, 8, 16, 32):
        config = replace(base, am_arc_cache_kb=kb)
        report = UnfoldSimulator(task, config=config).run(scores)
        print(
            f"{kb:>8d}KB {100 * report.miss_ratios['am_arc_cache']:>6.2f}% "
            f"{report.energy_mj_per_speech_second:>12.4f} "
            f"{report.area_mm2:>9.2f}"
        )

    # --- Figure 7 style: Offset Lookup Table sweep -------------------------
    print("\nOffset Lookup Table sweep:")
    print(f"{'entries':>10s} {'hit%':>7s} {'decode us':>10s}")
    for entries in (64, 256, 1024, 4096):
        config = replace(base, offset_table_entries=entries)
        report = UnfoldSimulator(task, config=config).run(scores)
        hit = report.decoder_stats.lookup.olt_hit_ratio
        print(
            f"{entries:>10d} {100 * hit:>6.1f}% "
            f"{1e6 * report.decode_seconds:>10.1f}"
        )

    print(
        "\nReading: miss ratios collapse once the cache covers the "
        "working set; past that point extra capacity only costs area and "
        "leakage — exactly the trade Table 3 resolves."
    )


if __name__ == "__main__":
    main()
