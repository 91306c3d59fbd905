#!/usr/bin/env python
"""Decode-throughput regression report.

Times the scalar reference hot loop against the vectorized one for
both decoders, plus serial vs utterance-parallel pool throughput, and
writes the numbers to ``BENCH_decode.json``::

    PYTHONPATH=src python tools/perf_report.py --preset small
    PYTHONPATH=src python tools/perf_report.py --preset medium --fail-below 3.0 \
        --fail-epsilon-above 0.12 --fail-parallel-below 1.0

The CI regression gates, all optional and exit-1 on breach:
``--fail-below X`` floors the on-the-fly vectorized speedup;
``--fail-epsilon-above S`` caps the vectorized on-the-fly epsilon
phase at ``S`` seconds (per-phase gate, not just total throughput);
``--fail-parallel-below X`` floors the pool's parallel speedup, and is
skipped with a warning on single-CPU machines where a process pool
cannot win.

The serving layer has its own bench and gates::

    PYTHONPATH=src python tools/perf_report.py --preset small --serve-only \
        --serve-transport tcp --serve-concurrency 2 \
        --fail-serve-p95-above 2.0 --fail-serve-fps-below 100

``--serve`` additionally runs the streaming-service bench (a live
server plus the load generator) and writes ``BENCH_serve.json``;
``--serve-only`` skips the decode bench.  ``--fail-serve-fps-below X``
floors served frames per second and ``--fail-serve-p95-above S`` caps
the client-observed p95 per-push latency; transcript parity with
sequential streaming and a clean drain are always required.
``--serve-seed N`` pins the load generator's submission order.  The
serve report also carries a fused-vs-unfused comparison at
``--serve-fusion-concurrency`` sessions:
``--fail-fusion-speedup-below X`` floors fused/unfused frames per
second and ``--fail-kernel-calls-per-batch-above R`` caps engine
dispatches per decoded batch with fusion on.

Fault tolerance has its own arm — the chaos smoke::

    PYTHONPATH=src python tools/perf_report.py --preset small --serve-chaos \
        --serve-seed 1234 --fail-recovery-below 1.0 \
        --fail-migration-p95-above 5.0

``--serve-chaos`` runs :func:`repro.experiments.serve_bench.measure_recovery`
alone (no decode bench): a seeded load against the worker engine with a
mid-utterance worker kill injected, asserting the supervisor migrated
the orphaned sessions from their checkpoints and every transcript still
matched the sequential reference bit-for-bit.
``--fail-recovery-below F`` floors the fraction of sessions that
survived the kill and ``--fail-migration-p95-above S`` caps the p95
recovery-sweep latency; both gates also apply to the ``recovery``
section ``--serve``/``--serve-only`` put in ``BENCH_serve.json``.
``--serve-abort-fraction F`` makes a seeded fraction of load-generator
sessions abandon their stream mid-utterance.

Sharded serving has its own arm — the shard smoke::

    PYTHONPATH=src python tools/perf_report.py --preset small --serve-shard \
        --serve-shards 2 --serve-seed 1234 --fail-shard-scaling-below 1.6 \
        --fail-segment-private-fraction-above 0.10

``--serve-shard`` runs :func:`repro.experiments.serve_bench.measure_shards`
alone: the same seeded load through one shard process and then
``--serve-shards`` of them, every shard mapping one shared-memory
recognizer segment, transcripts checked bit-exact against the
sequential reference both times.  ``--fail-shard-scaling-below X``
floors the frames/s ratio going 1 -> N shards (skipped with a warning
on single-CPU machines, like ``--fail-parallel-below``);
``--fail-segment-private-fraction-above F`` caps the fraction of the
shared segment any shard privatized — the per-worker incremental
memory of the recognizer, which stays ~0 while the segment is mapped
rather than copied.  Both gates also apply to the ``sharding`` section
``--serve``/``--serve-only`` put in ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        choices=("small", "medium"),
        default="small",
        help="task scale: small=tiny, medium=kaldi-librispeech",
    )
    parser.add_argument("--output", default="BENCH_decode.json")
    parser.add_argument(
        "--parallelism",
        type=int,
        default=2,
        help="worker processes for the pool comparison (1 disables it)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 if the on-the-fly vectorized speedup is below X",
    )
    parser.add_argument(
        "--fail-epsilon-above",
        type=float,
        default=None,
        metavar="S",
        help="exit 1 if the vectorized on-the-fly epsilon phase takes "
        "more than S seconds",
    )
    parser.add_argument(
        "--fail-parallel-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 if the pool's parallel speedup is below X "
        "(skipped with a warning on single-CPU machines)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also run the streaming-service bench (BENCH_serve.json)",
    )
    parser.add_argument(
        "--serve-only",
        action="store_true",
        help="run only the streaming-service bench",
    )
    parser.add_argument("--serve-output", default="BENCH_serve.json")
    parser.add_argument("--serve-concurrency", type=int, default=4)
    parser.add_argument("--serve-batch-frames", type=int, default=8)
    parser.add_argument(
        "--serve-transport", choices=("local", "tcp"), default="local"
    )
    parser.add_argument("--serve-workers", type=int, default=1)
    parser.add_argument(
        "--serve-seed",
        type=int,
        default=1234,
        help="load-generator submission-order seed (reproducible runs)",
    )
    parser.add_argument(
        "--serve-fusion-concurrency",
        type=int,
        default=8,
        help="sessions in the fused-vs-unfused serving comparison",
    )
    parser.add_argument(
        "--fail-fusion-speedup-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 if fused serving is below X times unfused frames/s",
    )
    parser.add_argument(
        "--fail-kernel-calls-per-batch-above",
        type=float,
        default=None,
        metavar="R",
        help="exit 1 if fused serving makes more than R engine "
        "dispatches per decoded batch",
    )
    parser.add_argument(
        "--fail-serve-fps-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 if the service decodes fewer than X frames/second",
    )
    parser.add_argument(
        "--fail-serve-p95-above",
        type=float,
        default=None,
        metavar="S",
        help="exit 1 if the client-observed p95 per-push latency "
        "exceeds S seconds",
    )
    parser.add_argument(
        "--serve-chaos",
        action="store_true",
        help="run the fault-recovery smoke alone: seeded load with a "
        "mid-utterance worker kill, transcripts must stay bit-exact",
    )
    parser.add_argument(
        "--serve-abort-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="seeded fraction of load-generator sessions that abandon "
        "their stream mid-utterance",
    )
    parser.add_argument(
        "--serve-shard",
        action="store_true",
        help="run the sharded-serving smoke alone: seeded load through "
        "1 then N shard processes over one shared recognizer segment, "
        "transcripts must stay bit-exact",
    )
    parser.add_argument(
        "--serve-shards",
        type=int,
        default=2,
        help="shard count for the 1-vs-N comparison (0 with --serve "
        "skips the sharding section)",
    )
    parser.add_argument(
        "--fail-shard-scaling-below",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 if N-shard serving is below X times single-shard "
        "frames/s (skipped with a warning on single-CPU machines)",
    )
    parser.add_argument(
        "--fail-segment-private-fraction-above",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 if any shard privatized more than fraction F of "
        "the shared recognizer segment (per-worker incremental memory)",
    )
    parser.add_argument(
        "--fail-recovery-below",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 if fewer than fraction F of sessions survive the "
        "injected worker kill with bit-identical finals",
    )
    parser.add_argument(
        "--fail-migration-p95-above",
        type=float,
        default=None,
        metavar="S",
        help="exit 1 if the p95 recovery-sweep latency (respawn + "
        "restore from checkpoint) exceeds S seconds",
    )
    args = parser.parse_args(argv)

    import json

    failures: list[str] = []
    notes: list[str] = []

    if not (
        args.serve_only
        or args.serve_chaos
        or args.serve_shard
    ):
        from repro.experiments.perf_decode import (
            check_report,
            write_bench_report,
        )

        result = write_bench_report(
            preset=args.preset,
            output=args.output,
            parallelism=args.parallelism,
            repeats=args.repeats,
        )
        print(result.render())
        print(f"\nwrote {args.output}")
        report = json.loads(Path(args.output).read_text())
        decode_failures, decode_notes = check_report(
            report,
            fail_below=args.fail_below,
            fail_epsilon_above=args.fail_epsilon_above,
            fail_parallel_below=args.fail_parallel_below,
        )
        failures.extend(decode_failures)
        notes.extend(decode_notes)

    if args.serve or args.serve_only:
        from repro.experiments.serve_bench import (
            check_fusion_report,
            check_recovery_report,
            check_serve_report,
            check_shard_report,
            write_bench_report as write_serve_report,
        )

        serve_result = write_serve_report(
            preset=args.preset,
            output=args.serve_output,
            concurrency=args.serve_concurrency,
            batch_frames=args.serve_batch_frames,
            transport=args.serve_transport,
            workers=args.serve_workers,
            seed=args.serve_seed,
            fusion_concurrency=args.serve_fusion_concurrency,
            abort_fraction=args.serve_abort_fraction,
            shards=args.serve_shards,
        )
        print(serve_result.render())
        print(f"\nwrote {args.serve_output}")
        serve_report = json.loads(Path(args.serve_output).read_text())
        serve_failures, serve_notes = check_serve_report(
            serve_report,
            fail_fps_below=args.fail_serve_fps_below,
            fail_p95_above=args.fail_serve_p95_above,
        )
        failures.extend(serve_failures)
        notes.extend(serve_notes)
        fusion_failures, fusion_notes = check_fusion_report(
            serve_report["fusion"],
            fail_fusion_speedup_below=args.fail_fusion_speedup_below,
            fail_kernel_calls_per_batch_above=(
                args.fail_kernel_calls_per_batch_above
            ),
        )
        failures.extend(fusion_failures)
        notes.extend(fusion_notes)
        recovery_failures, recovery_notes = check_recovery_report(
            serve_report["recovery"],
            fail_recovery_below=args.fail_recovery_below,
            fail_migration_p95_above=args.fail_migration_p95_above,
        )
        failures.extend(recovery_failures)
        notes.extend(recovery_notes)
        if "sharding" in serve_report:
            shard_failures, shard_notes = check_shard_report(
                serve_report["sharding"],
                fail_shard_scaling_below=args.fail_shard_scaling_below,
                fail_segment_private_fraction_above=(
                    args.fail_segment_private_fraction_above
                ),
            )
            failures.extend(shard_failures)
            notes.extend(shard_notes)
    elif args.serve_chaos:
        from repro.experiments.serve_bench import (
            check_recovery_report,
            measure_recovery,
        )

        comparison = measure_recovery(
            preset=args.preset,
            concurrency=args.serve_concurrency,
            batch_frames=args.serve_batch_frames,
            seed=args.serve_seed,
        )
        print(
            f"serve-chaos: killed worker 0 at dispatch "
            f"{comparison['die_at_push']}; "
            f"{comparison['sessions_migrated']} session(s) migrated "
            f"across {comparison['worker_restarts']} restart(s), "
            f"recovery rate {comparison['recovery_rate']}, "
            f"throughput overhead {comparison['recovery_overhead']}x"
        )
        recovery_failures, recovery_notes = check_recovery_report(
            comparison,
            fail_recovery_below=args.fail_recovery_below,
            fail_migration_p95_above=args.fail_migration_p95_above,
        )
        failures.extend(recovery_failures)
        notes.extend(recovery_notes)
    elif args.serve_shard:
        from repro.experiments.serve_bench import (
            check_shard_report,
            measure_shards,
        )

        comparison = measure_shards(
            preset=args.preset,
            shards=args.serve_shards,
            batch_frames=args.serve_batch_frames,
            seed=args.serve_seed,
        )
        print(
            f"serve-shard: {comparison['shards']} shards over one "
            f"{comparison['shared_nbytes']}-byte shared segment; "
            f"scaling {comparison['shard_scaling']}x "
            f"({comparison['single_frames_per_second']} -> "
            f"{comparison['sharded_frames_per_second']} frames/s), "
            f"sessions per shard {comparison['sessions_per_shard']}, "
            f"max segment privatization "
            f"{comparison['max_segment_private_fraction']}"
        )
        shard_failures, shard_notes = check_shard_report(
            comparison,
            fail_shard_scaling_below=args.fail_shard_scaling_below,
            fail_segment_private_fraction_above=(
                args.fail_segment_private_fraction_above
            ),
        )
        failures.extend(shard_failures)
        notes.extend(shard_notes)

    for note in notes:
        print(f"OK: {note}" if "skipped" not in note else f"WARN: {note}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
