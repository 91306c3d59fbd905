"""Command-line interface.

Subcommands::

    python -m repro sizes   [task ...]   # Figure 8 storage table
    python -m repro decode  [task]       # decode a sample batch, show WER
    python -m repro experiment <id>      # regenerate one table/figure
    python -m repro report  [output]     # regenerate EXPERIMENTS.md
    python -m repro serve   [task]       # live streaming transcription server

Task names: tiny, kaldi-voxforge, kaldi-librispeech, kaldi-tedlium,
eesen-tedlium.
"""

from __future__ import annotations

import argparse
import sys

from repro.asr.task import (
    EESEN_TEDLIUM,
    KALDI_LIBRISPEECH,
    KALDI_TEDLIUM,
    KALDI_VOXFORGE,
    TINY,
    TaskConfig,
)

TASKS: dict[str, TaskConfig] = {
    config.name: config
    for config in (TINY, KALDI_VOXFORGE, KALDI_LIBRISPEECH, KALDI_TEDLIUM, EESEN_TEDLIUM)
}


def _task_config(name: str) -> TaskConfig:
    if name not in TASKS:
        raise SystemExit(
            f"unknown task {name!r}; choose from: {', '.join(TASKS)}"
        )
    return TASKS[name]


def cmd_sizes(args: argparse.Namespace) -> int:
    from repro.asr import build_task
    from repro.compress import measure_dataset_sizing

    names = args.tasks or ["kaldi-voxforge"]
    header = (
        f"{'task':20s} {'composed':>10s} {'comp+Price':>11s} "
        f"{'AM+LM':>9s} {'UNFOLD':>9s} {'reduction':>10s}"
    )
    print(header)
    print("-" * len(header))
    for name in names:
        sizing = measure_dataset_sizing(build_task(_task_config(name)))
        mb = 1 / 2**20
        print(
            f"{name:20s} {sizing.composed_bytes * mb:9.2f}M "
            f"{sizing.composed_comp_bytes * mb:10.2f}M "
            f"{sizing.onthefly_bytes * mb:8.2f}M "
            f"{sizing.onthefly_comp_bytes * mb:8.3f}M "
            f"{sizing.unfold_reduction:9.1f}x"
        )
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from repro.asr import DecodePool, build_scorer, build_task
    from repro.asr.wer import word_error_rate
    from repro.core import DecoderConfig

    task = build_task(_task_config(args.task))
    scorer = build_scorer(task)
    config = DecoderConfig(beam=args.beam, vectorized=not args.no_vectorized)
    utterances = task.test_set(args.utterances, max_words=8)
    with DecodePool(
        task.am,
        task.lm,
        scorer=scorer,
        config=config,
        parallelism=args.parallelism,
    ) as pool:
        results = pool.decode_utterances(utterances)
    hypotheses = []
    for utterance, result in zip(utterances, results):
        hypotheses.append(result.words)
        marker = "=" if result.words == utterance.words else "!"
        print(f"ref{marker} {' '.join(utterance.words)}")
        print(f"hyp{marker} {' '.join(result.words)}")
    wer = word_error_rate([u.words for u in utterances], hypotheses)
    print(
        f"\nWER: {wer:.1%} over {len(utterances)} utterances "
        f"(strategy: {pool.strategy})"
    )
    return 0


def serve_setup(args: argparse.Namespace):
    """(task, scorer, decoder config, serve config) for ``repro serve``."""
    from repro.asr import build_scorer, build_task
    from repro.core import DecoderConfig
    from repro.serve import ServeConfig

    task = build_task(_task_config(args.task))
    # Always built: shard processes decode the shared-memory recognizer,
    # which carries it, and the server needs it to serve sessions that
    # negotiate ``payload: features``.
    scorer = build_scorer(task)
    config = DecoderConfig(beam=args.beam, vectorized=True)
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_queued_batches=args.max_queued_batches,
        idle_timeout_seconds=args.idle_timeout,
    )
    return task, scorer, config, serve_config


def serve_server(args: argparse.Namespace):
    """The (unstarted) single-process server ``repro serve`` runs."""
    from repro.serve import TranscriptionServer

    task, scorer, config, serve_config = serve_setup(args)
    return TranscriptionServer(
        task.am,
        task.lm,
        decoder_config=config,
        serve_config=serve_config,
        scorer=scorer,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    async def _serve() -> None:
        if args.shards > 1:
            from repro.serve import ShardedServer

            task, scorer, config, serve_config = serve_setup(args)
            sharded = ShardedServer(
                task.am,
                task.lm,
                scorer=scorer,
                decoder_config=config,
                serve_config=serve_config,
                shards=args.shards,
            )
            await sharded.start()
            endpoints = " ".join(
                f"{host}:{port}" for host, port in sharded.endpoints
            )
            print(
                f"serving {task.name} on {args.shards} shards "
                f"({endpoints}) over shared segment "
                f"{sharded.segment_name} "
                f"({sharded.shared_nbytes} bytes; Ctrl-C stops)",
                flush=True,
            )
            try:
                await asyncio.Event().wait()
            finally:
                await sharded.stop()
            return
        server = serve_server(args)
        await server.start()
        print(
            f"serving {args.task} on {server.config.host}:{server.port} "
            f"(max_sessions={args.max_sessions}; Ctrl-C drains and stops)",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop(drain=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("drained and stopped")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    result = run_experiment(args.id)
    print(result.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import main as report_main

    return report_main([args.output])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="UNFOLD reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sizes = sub.add_parser("sizes", help="Figure 8 storage configurations")
    p_sizes.add_argument("tasks", nargs="*", help="task names")
    p_sizes.set_defaults(func=cmd_sizes)

    p_decode = sub.add_parser("decode", help="decode a sample batch")
    p_decode.add_argument("task", nargs="?", default="tiny")
    p_decode.add_argument("--utterances", type=int, default=5)
    p_decode.add_argument("--beam", type=float, default=14.0)
    p_decode.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="worker processes for utterance-parallel decoding",
    )
    p_decode.add_argument(
        "--no-vectorized",
        action="store_true",
        help="force the scalar reference hot loop",
    )
    p_decode.set_defaults(func=cmd_decode)

    p_serve = sub.add_parser(
        "serve",
        help="live streaming transcription server (NDJSON TCP)",
        description="Serve streaming transcription over NDJSON TCP: one "
        "single-threaded server process, or with --shards N, N such "
        "servers over one shared-memory recognizer.  A shard that dies "
        "or stops answering is respawned on the same port, and clients "
        "re-open their sessions there and re-push what they sent.",
    )
    p_serve.add_argument("task", nargs="?", default="tiny")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    p_serve.add_argument("--beam", type=float, default=14.0)
    p_serve.add_argument("--max-sessions", type=int, default=8)
    p_serve.add_argument("--max-queued-batches", type=int, default=4)
    p_serve.add_argument("--idle-timeout", type=float, default=30.0)
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard processes sharing one in-memory recognizer segment "
        "(>1 starts a ShardedServer that respawns dead shards; clients "
        "route by session key)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_exp = sub.add_parser("experiment", help="regenerate one table/figure")
    p_exp.add_argument("id", help="e.g. fig08, table1, ablation-lookup")
    p_exp.set_defaults(func=cmd_experiment)

    p_report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (runs every experiment)"
    )
    p_report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
