#!/usr/bin/env python
"""Crossover curve behind ``repro.core.batch.SCALAR_FRONTIER_MAX``.

Steps the same utterances through both frame-step regimes — the
scalar reference body (a one-frame scalar run) and the numpy kernels —
timing every frame and bucketing it by the number of tokens entering
it, the quantity the regime switch tests::

    PYTHONPATH=src python tools/frame_step_crossover.py

Both regimes leave identical state, so both see the same frontier
sizes on the same frames.  Beams are swept only to populate every
bucket.  The table in
DESIGN.md ("Frame-step regimes") is this script's output on the host
that runs the benchmark; rerun it before changing the constant.
"""

from __future__ import annotations

import argparse
from statistics import median
from time import perf_counter

import numpy as np

from repro.am import GmmAcousticModel
from repro.asr import KALDI_LIBRISPEECH, TINY, build_task
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.core import batch

BUCKETS = (8, 16, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 10**9)
#: (column, SCALAR_FRONTIER_MAX forced).
REGIMES = (("scalar", 10**9), ("solo", 0))


def _timed_frames(decoder, scores, threshold):
    """(tokens entering, seconds) for every frame."""
    batch.SCALAR_FRONTIER_MAX = threshold
    seg = decoder.new_segment(decoder.lookup.fork())
    out = []
    for frame in range(scores.shape[0]):
        entering = len(seg.table)
        mark = perf_counter()
        batch.advance_segment(decoder, seg, scores[frame : frame + 1])
        out.append((entering, perf_counter() - mark))
    return out


def measure(task_config, beams, utterances, repeats):
    task = build_task(task_config)
    scorer = GmmAcousticModel.from_emissions(
        task.emissions, num_mixtures=1, noise_scale=task.config.noise_scale
    )
    matrices = [
        np.ascontiguousarray(scorer.score(u.features), dtype=np.float64)
        for u in task.test_set(utterances, max_words=6)
    ]
    samples = {name: {b: [] for b in BUCKETS} for name, _ in REGIMES}
    for beam in beams:
        decoder = OnTheFlyDecoder(task.am, task.lm, DecoderConfig(beam=beam))
        for scores in matrices:
            for name, threshold in REGIMES:
                # Best of ``repeats`` per frame: the host's slow spells
                # only ever add time.
                runs = [
                    _timed_frames(decoder, scores, threshold)
                    for _ in range(repeats)
                ]
                for frame in zip(*runs):
                    entering = frame[0][0]
                    bucket = next(b for b in BUCKETS if entering <= b)
                    samples[name][bucket].append(min(t for _, t in frame))
    return samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--utterances", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    default = batch.SCALAR_FRONTIER_MAX
    sweeps = (
        (TINY, (12.0,)),
        (KALDI_LIBRISPEECH, (4.0, 6.0, 8.0, 10.0, 12.0, 16.0)),
    )
    try:
        for config, beams in sweeps:
            samples = measure(config, beams, args.utterances, args.repeats)
            print(f"\n{config.name}: median us/frame")
            names = [name for name, _ in REGIMES]
            print(f"| tokens entering | frames | {' | '.join(names)} |")
            print("|---|---|" + "---|" * len(names))
            low = 1
            for bucket in BUCKETS:
                count = len(samples["scalar"][bucket])
                if count:
                    cells = " | ".join(
                        f"{1e6 * median(samples[name][bucket]):.1f}"
                        for name in names
                    )
                    label = f"{low}+" if bucket == BUCKETS[-1] else f"{low}-{bucket}"
                    print(f"| {label} | {count} | {cells} |")
                low = bucket + 1
    finally:
        batch.SCALAR_FRONTIER_MAX = default


if __name__ == "__main__":
    main()
