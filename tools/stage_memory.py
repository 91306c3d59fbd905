#!/usr/bin/env python
"""Resident memory after each set-up and decode stage of a recognizer.

For each benchmark workload's preset and scorer, one fresh process
(BLAS pinned to one thread, as ``bench/`` pins it) reports VmRSS and
VmHWM after: the imports, ``build_task``, ``build_scorer``, the
decoder build, the bench's warm-up, and one decode of each utterance
length 1 … ``max_words``::

    python tools/stage_memory.py                      # all four workloads
    python tools/stage_memory.py --workload offline_wide --seed 11

The decoder is the one the workload's recognizer process builds:
offline, ``AsrSystem.transcribe([])`` (the serial ``DecodePool`` at the
bench's beam and ``max_active``); serve, the ``OnTheFlyDecoder`` an
``InlineEngine`` builds, fed ``scorer.score`` matrices.  Prints one
Markdown table of VmRSS / VmHWM (MiB) per stage, then VmHWM after each
decode length.  DESIGN.md's "No throwaway copies" tables are this
script's output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
STAGES = ("import", "task build", "scorer fit", "decoder build", "warm-up")


def _memory_mib() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MiB."""
    found = {}
    with open("/proc/self/status") as handle:
        for line in handle:
            key = line.split(":", 1)[0]
            if key in ("VmRSS", "VmHWM"):
                found[key] = int(line.split()[1]) / 1024.0
    return found["VmRSS"], found["VmHWM"]


def _child(name: str, seed: int) -> None:
    """Run one workload's stages, printing one JSON line per stage."""
    sys.path.insert(0, str(ROOT / "src"))
    from common import WARMUP_OPS, WORKLOADS, sample_utterances, seed_inputs
    from offline_child import BEAM, MAX_ACTIVE

    workload = WORKLOADS[name]

    def report(stage: str) -> None:
        rss, hwm = _memory_mib()
        print(json.dumps({"stage": stage, "rss": rss, "hwm": hwm}), flush=True)

    import numpy  # noqa: F401

    import repro.asr as asr
    from repro.core.decoder import DecoderConfig, OnTheFlyDecoder

    report("import")
    task = asr.build_task(getattr(asr, workload.preset))
    report("task build")
    scorer = asr.build_scorer(task, hidden=workload.hidden)
    report("scorer fit")
    if workload.kind == "offline":
        config = DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE)
        system = asr.AsrSystem(task, scorer)
        system.transcribe([], config=config)

        def decode(utterance) -> None:
            system.transcribe([utterance], config=config)

    else:
        decoder = OnTheFlyDecoder(task.am, task.lm, DecoderConfig())

        def decode(utterance) -> None:
            decoder.decode(scorer.score(utterance.features))

    report("decoder build")
    seed_inputs(task, seed)
    for utterance in task.test_set(WARMUP_OPS, max_words=workload.max_words):
        decode(utterance)
    report("warm-up")
    for utterance in sample_utterances(
        task, workload.max_words, workload.max_words
    ):
        decode(utterance)
        report(f"decode {len(utterance.words)}")


def _run(name: str, seed: int) -> list[dict]:
    """One workload's stages, run in a fresh process."""
    from common import THREAD_ENV

    out = subprocess.run(
        [sys.executable, __file__, "--child", name, "--seed", str(seed)],
        env={**os.environ, **THREAD_ENV},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.child:
        _child(args.child, args.seed)
        return 0
    from common import WORKLOADS

    names = args.workload or list(WORKLOADS)
    rows = {name: _run(name, args.seed) for name in names}
    print("| workload (preset) | " + " | ".join(STAGES) + " | decode |")
    print("|---" * (len(STAGES) + 2) + "|")
    for name, stages in rows.items():
        # The set-up stages, then the state after the last decode.
        shown = stages[: len(STAGES)] + stages[-1:]
        cells = [f"{s['rss']:.1f} / {s['hwm']:.1f}" for s in shown]
        preset = WORKLOADS[name].preset
        print(f"| `{name}` (`{preset}`) | " + " | ".join(cells) + " |")
    print()
    print("VmHWM (MiB) after the decode of each length:")
    for name, stages in rows.items():
        decodes = stages[len(STAGES) :]
        print(f"  {name}: " + " ".join(
            f"{s['stage'].split()[-1]}:{s['hwm']:.1f}" for s in decodes
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
