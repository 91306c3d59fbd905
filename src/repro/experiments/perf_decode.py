"""Decode-throughput regression harness (perf-decode).

Not a paper figure: this experiment guards the *software* decoder's
performance the way the other drivers guard the paper's numbers.  It
times the scalar reference hot loop against the vectorized one (both
decoders), breaks a decode into phases (emitting expansion / epsilon
phase / bookkeeping), and measures utterance-parallel throughput
through :class:`~repro.asr.parallel.DecodePool` — asserting along the
way that every path produces identical transcripts and costs.

``write_bench_report`` additionally persists the numbers as
``BENCH_decode.json`` so regressions show up as a diff
(``tools/perf_report.py`` is the command-line wrapper).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

from repro.asr import DecodePool
from repro.asr.parallel import visible_cpus
from repro.asr.task import KALDI_LIBRISPEECH, TINY
from repro.core import (
    DecoderConfig,
    FullyComposedDecoder,
    OnTheFlyDecoder,
    VirtualComposedGraph,
)
from repro.experiments.common import MAX_ACTIVE, ExperimentResult, get_bundle

#: Beam shared by every timed configuration (the suite's default).
BEAM = 14.0

PRESETS = {
    "small": TINY,
    "medium": KALDI_LIBRISPEECH,
}


#: Kept as an alias — serve_bench and older callers import this name.
_visible_cpus = visible_cpus


def _time_serial(make_decoder, scores, repeats: int):
    """Best-of-N wall time for a serial pass; returns (seconds, results,
    summed per-phase breakdown of the best pass)."""
    best = math.inf
    results = None
    phases = None
    decoder = make_decoder()
    for _ in range(repeats):
        start = perf_counter()
        pass_results = []
        pass_phases = {"expand": 0.0, "epsilon": 0.0, "other": 0.0}
        for matrix in scores:
            pass_results.append(decoder.decode(matrix))
            breakdown = decoder.last_phase_seconds
            for key in pass_phases:
                pass_phases[key] += breakdown[key]
        elapsed = perf_counter() - start
        if elapsed < best:
            best = elapsed
            results = pass_results
            phases = pass_phases
    return best, results, phases


def measure(
    preset: str = "small",
    parallelism: int = 2,
    repeats: int = 3,
) -> dict:
    """Time every decode path on one preset; returns the report dict."""
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    bundle = get_bundle(PRESETS[preset])
    task = bundle.task
    scores = bundle.scores
    frames = sum(s.shape[0] for s in scores)

    def config(vectorized: bool) -> DecoderConfig:
        return DecoderConfig(
            beam=BEAM,
            max_active=MAX_ACTIVE,
            vectorized=vectorized,
            profile=True,
        )

    rows = []
    reference = {}
    for decoder_name, factory in (
        (
            "on-the-fly",
            lambda v: OnTheFlyDecoder(task.am, task.lm, config(v)),
        ),
        (
            "fully-composed",
            lambda v: FullyComposedDecoder(
                VirtualComposedGraph(task.am, task.lm), config(v)
            ),
        ),
    ):
        timings = {}
        outputs = {}
        for mode, vectorized in (("scalar", False), ("vectorized", True)):
            seconds, results, phases = _time_serial(
                lambda f=factory, v=vectorized: f(v), scores, repeats
            )
            timings[mode] = seconds
            outputs[mode] = results
            rows.append(
                {
                    "decoder": decoder_name,
                    "mode": mode,
                    "seconds": round(seconds, 4),
                    "frames_per_sec": round(frames / seconds, 1),
                    "utt_per_sec": round(len(scores) / seconds, 2),
                    "expand_s": round(phases["expand"], 4),
                    "epsilon_s": round(phases["epsilon"], 4),
                    "other_s": round(phases["other"], 4),
                }
            )
        mismatched = [
            i
            for i, (a, b) in enumerate(
                zip(outputs["scalar"], outputs["vectorized"])
            )
            if a.words != b.words or a.cost != b.cost
        ]
        if mismatched:
            raise AssertionError(
                f"{decoder_name}: vectorized/scalar outputs diverge on "
                f"utterances {mismatched}"
            )
        speedup = timings["scalar"] / timings["vectorized"]
        rows[-1]["speedup_vs_scalar"] = round(speedup, 2)
        reference[decoder_name] = speedup

    parallel = _measure_parallel(bundle, parallelism, config(True))

    return {
        "preset": preset,
        "cpus": _visible_cpus(),
        "task": task.name,
        "utterances": len(scores),
        "frames": frames,
        "beam": BEAM,
        "max_active": MAX_ACTIVE,
        "repeats": repeats,
        "rows": rows,
        "parallel": parallel,
        "vectorized_speedup": {
            name: round(value, 2) for name, value in reference.items()
        },
    }


def _measure_parallel(bundle, parallelism: int, config: DecoderConfig) -> dict:
    """Serial-pool vs parallel-pool throughput on the same batch."""
    task = bundle.task
    scores = bundle.scores

    # Both pools get the scorer so both decode the bundle-quantized
    # recognizer — the precondition for result identity.
    with DecodePool(
        task.am, task.lm, scorer=bundle.scorer, config=config
    ) as pool:
        start = perf_counter()
        serial_results = pool.decode_scores(scores)
        serial_seconds = perf_counter() - start

    parallel_seconds = None
    if parallelism > 1:
        with DecodePool(
            task.am,
            task.lm,
            scorer=bundle.scorer,
            config=config,
            parallelism=parallelism,
        ) as pool:
            # Untimed pass: spawns the workers and pays each one's
            # bundle load + decoder build before the clock starts.
            pool.decode_scores(scores)
            start = perf_counter()
            parallel_results = pool.decode_scores(scores)
            parallel_seconds = perf_counter() - start
        mismatched = [
            i
            for i, (a, b) in enumerate(zip(serial_results, parallel_results))
            if a.words != b.words or a.cost != b.cost or a.stats != b.stats
        ]
        if mismatched:
            raise AssertionError(
                f"parallel pool diverges from serial on {mismatched}"
            )

    out = {
        "parallelism": parallelism,
        "serial_seconds": round(serial_seconds, 4),
        "serial_utt_per_sec": round(len(scores) / serial_seconds, 2),
    }
    if parallel_seconds is not None:
        out["parallel_seconds"] = round(parallel_seconds, 4)
        out["parallel_utt_per_sec"] = round(
            len(scores) / parallel_seconds, 2
        )
        out["parallel_speedup"] = round(serial_seconds / parallel_seconds, 2)
    return out


def check_report(
    report: dict,
    fail_below: float | None = None,
    fail_epsilon_above: float | None = None,
    fail_parallel_below: float | None = None,
) -> tuple[list[str], list[str]]:
    """Evaluate regression gates against a measured report.

    Returns ``(failures, notes)``: human-readable failure lines (empty
    when every gate passes) and informational lines for gates that
    were evaluated or skipped.  Gates:

    * ``fail_below`` — floor on the on-the-fly vectorized speedup;
    * ``fail_epsilon_above`` — ceiling (seconds) on the vectorized
      on-the-fly row's ``epsilon_s``, so the batched composition phase
      can't silently regress while total throughput still passes;
    * ``fail_parallel_below`` — floor on the pool's parallel speedup,
      skipped (with a note) when the harness saw a single CPU, where a
      process pool cannot beat the serial pass.
    """
    failures: list[str] = []
    notes: list[str] = []
    if fail_below is not None:
        speedup = report["vectorized_speedup"]["on-the-fly"]
        if speedup < fail_below:
            failures.append(
                f"on-the-fly vectorized speedup {speedup}x is below "
                f"the {fail_below}x floor"
            )
        else:
            notes.append(f"on-the-fly vectorized speedup {speedup}x")
    if fail_epsilon_above is not None:
        row = next(
            r
            for r in report["rows"]
            if r["decoder"] == "on-the-fly" and r["mode"] == "vectorized"
        )
        epsilon_s = row["epsilon_s"]
        if epsilon_s > fail_epsilon_above:
            failures.append(
                f"vectorized on-the-fly epsilon_s {epsilon_s}s exceeds "
                f"the {fail_epsilon_above}s ceiling"
            )
        else:
            notes.append(f"vectorized on-the-fly epsilon_s {epsilon_s}s")
    if fail_parallel_below is not None:
        parallel = report["parallel"]
        speedup = parallel.get("parallel_speedup")
        if speedup is None:
            notes.append("parallel gate skipped: no parallel pass measured")
        elif report["cpus"] < 2:
            notes.append(
                f"parallel gate skipped: {report['cpus']} visible cpu(s); "
                f"measured {speedup}x for the record"
            )
        elif speedup < fail_parallel_below:
            failures.append(
                f"pool parallel speedup {speedup}x at parallelism "
                f"{parallel['parallelism']} is below the "
                f"{fail_parallel_below}x floor"
            )
        else:
            notes.append(f"pool parallel speedup {speedup}x")
    return failures, notes


def _to_result(report: dict) -> ExperimentResult:
    rows = [dict(row) for row in report["rows"]]
    parallel = report["parallel"]
    notes = (
        f"preset={report['preset']} frames={report['frames']} "
        f"vectorized speedup: "
        + ", ".join(
            f"{k} {v}x" for k, v in report["vectorized_speedup"].items()
        )
        + f"; pool x{parallel['parallelism']} on {report['cpus']} cpu(s): "
        f"{parallel['serial_utt_per_sec']} -> "
        f"{parallel.get('parallel_utt_per_sec', '-')} utt/s"
    )
    return ExperimentResult(
        experiment_id="perf-decode",
        title="software decode throughput (regression harness)",
        rows=rows,
        notes=notes,
    )


def run() -> ExperimentResult:
    return _to_result(measure(preset="small"))


def write_bench_report(
    preset: str = "small",
    output: str | Path = "BENCH_decode.json",
    parallelism: int = 2,
    repeats: int = 3,
) -> ExperimentResult:
    """Measure one preset and persist ``BENCH_decode.json``."""
    report = measure(preset=preset, parallelism=parallelism, repeats=repeats)
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return _to_result(report)
