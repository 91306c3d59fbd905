"""Serving-layer regression harness (serve-bench).

Not a paper figure: like :mod:`repro.experiments.perf_decode`, this
experiment guards software we built around the paper — here the
:mod:`repro.serve` streaming service.  It starts a real
:class:`~repro.serve.server.TranscriptionServer` on one preset, replays
the preset's utterances through the load generator at a fixed
concurrency (over the in-process client or genuine TCP sockets),
asserts every concurrent transcript matches a sequential
:func:`~repro.asr.streaming.decode_streaming` pass, asserts shutdown
drained every admitted session, and reports throughput plus latency
percentiles from both the client's and the server's (metrics registry)
point of view.

``write_bench_report`` persists the numbers as ``BENCH_serve.json`` so
service regressions show up as a diff; ``tools/perf_report.py
--serve`` is the command-line wrapper with the CI gates.
:func:`measure_recovery` is the fault-tolerance arm of the harness: it
kills a worker process mid-load and asserts the surviving stack still
produces bit-identical transcripts, reporting what the recovery cost
(``tools/perf_report.py --serve-chaos``).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.core.decoder import DecoderConfig, OnTheFlyDecoder
from repro.experiments.common import MAX_ACTIVE, ExperimentResult, get_bundle
from repro.experiments.perf_decode import BEAM, PRESETS, _visible_cpus

#: Defaults sized so backpressure is reachable but not constant: the
#: table holds the bench concurrency, queues stay shallow.
DEFAULT_CONCURRENCY = 4
DEFAULT_BATCH_FRAMES = 8

TRANSPORTS = ("local", "tcp")


def measure(
    preset: str = "small",
    concurrency: int = DEFAULT_CONCURRENCY,
    batch_frames: int = DEFAULT_BATCH_FRAMES,
    transport: str = "local",
    workers: int = 1,
    max_sessions: int | None = None,
    max_queued_batches: int = 4,
    fuse_sessions: bool = True,
    seed: int | None = None,
    abort_fraction: float = 0.0,
    chaos=None,
    request_timeout: float | None = None,
    payload: str = "scores",
    encoding: str = "list",
) -> dict:
    """Run one load-generation pass against a live server.

    Raises ``AssertionError`` when any concurrent transcript diverges
    from the sequential reference or the drain leaves sessions behind —
    a bench that measured wrong answers has nothing worth reporting.
    ``abort_fraction`` makes a seeded slice of sessions cancel
    mid-stream (their utterances are excluded from the parity check);
    ``chaos`` injects a :class:`~repro.serve.chaos.WorkerChaos` fault
    plan into the worker engine (``workers > 1`` only), and completed
    transcripts must *still* match the reference bit-for-bit.

    ``payload="features"`` streams raw feature frames instead of
    precomputed scores, so the *server* runs the acoustic model (at
    dispatch).  The small presets' GMM scorer is chunk-exact, so
    feature-streamed transcripts with the exact ``list`` encoding
    still compare bit-for-bit against the sequential reference; the
    compact ``b64f32`` encoding quantizes, so only words are asserted
    there.
    """
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; choose from {TRANSPORTS}"
        )
    bundle = get_bundle(PRESETS[preset])
    task = bundle.task
    scores = bundle.scores
    config = DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE, vectorized=True)

    # Sequential reference.  The inline engine decodes the parent
    # graphs; worker processes decode the bundle-quantized recognizer
    # (DecodePool's contract), so each mode is compared against a
    # reference decoding the same graphs it serves.
    if workers == 1:
        from repro.asr.streaming import transcribe_streams

        decoder = OnTheFlyDecoder(task.am, task.lm, config)
        expected = transcribe_streams(decoder, scores, batch_frames)
    else:
        from repro.asr.parallel import DecodePool

        with DecodePool(
            task.am,
            task.lm,
            scorer=bundle.scorer,
            config=config,
            parallelism=1,
        ) as ref_pool:
            expected = ref_pool.decode_streams(scores, batch_frames)

    load, metrics, drained, memory = asyncio.run(
        _drive(
            bundle,
            config,
            concurrency=concurrency,
            batch_frames=batch_frames,
            transport=transport,
            workers=workers,
            max_sessions=max_sessions or max(concurrency, 2),
            max_queued_batches=max_queued_batches,
            fuse_sessions=fuse_sessions,
            seed=seed,
            abort_fraction=abort_fraction,
            chaos=chaos,
            request_timeout=request_timeout,
            payload=payload,
            encoding=encoding,
        )
    )

    # Aborted sessions never produce a final, so compare by utterance
    # index; every outcome that *did* complete must match exactly.
    # The b64f32 encoding deliberately quantizes the wire matrices, so
    # its costs drift off the float64 reference; words must still hold.
    exact_costs = encoding == "list"
    mismatched = [
        o.index
        for o in load.outcomes
        if o.words != expected[o.index].words
        or (exact_costs and o.cost != expected[o.index].cost)
    ]
    if mismatched:
        raise AssertionError(
            f"served transcripts diverge from sequential streaming on "
            f"utterances {mismatched}"
        )
    if len(load.outcomes) + load.aborted != len(scores):
        raise AssertionError(
            f"{len(scores)} utterances submitted but only "
            f"{len(load.outcomes)} completed + {load.aborted} aborted"
        )
    if not drained:
        raise AssertionError("graceful stop left sessions undrained")

    counters = metrics.get("counters", {})
    batches = counters.get("batches_decoded", 0)
    report = {
        "preset": preset,
        "task": task.name,
        "cpus": _visible_cpus(),
        "transport": transport,
        "workers": workers,
        "max_sessions": max_sessions or max(concurrency, 2),
        "max_queued_batches": max_queued_batches,
        "fuse_sessions": fuse_sessions,
        "matches_sequential": True,
        "drained": True,
        "kernel_calls": counters.get("kernel_calls", 0),
        "kernel_calls_per_batch": (
            round(counters.get("kernel_calls", 0) / batches, 4)
            if batches
            else None
        ),
        #: Worker engine only: shared-segment size vs each worker's
        #: RSS/USS + the segment mapping's private pages (None for the
        #: in-process engine, which has no worker processes to weigh).
        "memory": memory,
        "metrics": metrics,
    }
    report.update(load.to_dict())
    return report


def measure_fusion(
    preset: str = "small",
    concurrency: int = 8,
    batch_frames: int = DEFAULT_BATCH_FRAMES,
    seed: int | None = 1234,
) -> dict:
    """Fused vs unfused serving on one preset at equal concurrency.

    Runs the same seeded load twice against the in-process engine —
    sessions fused into one engine call per scheduler cycle, then one
    engine dispatch per session — and reports both passes plus the headline comparisons the
    fusion gates consume (relative frames/s and kernel calls per
    decoded batch).
    """
    fused = measure(
        preset=preset,
        concurrency=concurrency,
        batch_frames=batch_frames,
        fuse_sessions=True,
        seed=seed,
    )
    unfused = measure(
        preset=preset,
        concurrency=concurrency,
        batch_frames=batch_frames,
        fuse_sessions=False,
        seed=seed,
    )
    return {
        "preset": preset,
        "concurrency": concurrency,
        "batch_frames": batch_frames,
        "seed": seed,
        "fused": fused,
        "unfused": unfused,
        "fused_frames_per_second": fused["frames_per_second"],
        "unfused_frames_per_second": unfused["frames_per_second"],
        "fusion_speedup": round(
            fused["frames_per_second"]
            / max(unfused["frames_per_second"], 1e-9),
            3,
        ),
        "fused_kernel_calls_per_batch": fused["kernel_calls_per_batch"],
        "unfused_kernel_calls_per_batch": unfused["kernel_calls_per_batch"],
    }


def measure_recovery(
    preset: str = "small",
    concurrency: int = DEFAULT_CONCURRENCY,
    batch_frames: int = DEFAULT_BATCH_FRAMES,
    workers: int = 2,
    seed: int | None = 1234,
    die_at_push: int | None = None,
    request_timeout: float = 30.0,
) -> dict:
    """Kill a worker mid-load and report what recovery cost.

    Two seeded passes over the same utterances against the worker
    engine: a fault-free baseline, then one where
    :class:`~repro.serve.chaos.WorkerChaos` makes worker 0 die
    (``os._exit``) on its ``die_at_push``-th dispatch — mid-utterance
    for every session pinned to it.  The supervisor must respawn the
    worker and migrate its sessions from their rolling checkpoints,
    and every transcript must still match the sequential reference
    bit-for-bit (:func:`measure` enforces that on both passes).

    The returned comparison carries the recovery counters
    (``worker_restarts``, ``sessions_migrated``, ``sessions_lost``,
    ``checkpoints_taken``, scheduler ``retries``/``recoveries``/
    ``deadline_exceeded``), the migration-latency summary, and the
    throughput overhead of decoding through the fault
    (``recovery_overhead`` = baseline / faulted frames per second).
    """
    from repro.serve.chaos import WorkerChaos

    if workers < 2:
        raise ValueError(
            "recovery needs workers >= 2 (a surviving worker must "
            "adopt the dead worker's sessions)"
        )
    if die_at_push is None:
        # Late enough that every session pinned to the doomed worker
        # has pushed at least once (checkpoints + replay both in play),
        # early enough to land mid-utterance on the small presets.
        die_at_push = 2 * concurrency
    chaos = WorkerChaos(worker_index=0, die_at_push=die_at_push)
    baseline = measure(
        preset=preset,
        concurrency=concurrency,
        batch_frames=batch_frames,
        workers=workers,
        seed=seed,
        request_timeout=request_timeout,
    )
    faulted = measure(
        preset=preset,
        concurrency=concurrency,
        batch_frames=batch_frames,
        workers=workers,
        seed=seed,
        chaos=chaos,
        request_timeout=request_timeout,
    )
    counters = faulted["metrics"]["counters"]
    migration = faulted["metrics"]["histograms"].get("migration_seconds")
    completed = faulted["utterances"]
    lost = counters.get("sessions_lost", 0)
    recovery_rate = (
        completed / (completed + lost) if completed + lost else 0.0
    )
    return {
        "preset": preset,
        "concurrency": concurrency,
        "batch_frames": batch_frames,
        "workers": workers,
        "seed": seed,
        "die_at_push": die_at_push,
        "baseline": baseline,
        "faulted": faulted,
        "worker_restarts": counters.get("worker_restarts", 0),
        "sessions_migrated": counters.get("sessions_migrated", 0),
        "sessions_lost": lost,
        "checkpoints_taken": counters.get("checkpoints_taken", 0),
        "retries": counters.get("retries", 0),
        "recoveries": counters.get("recoveries", 0),
        "deadline_exceeded": counters.get("deadline_exceeded", 0),
        "migration_seconds": migration,
        "recovery_rate": round(recovery_rate, 4),
        "baseline_frames_per_second": baseline["frames_per_second"],
        "faulted_frames_per_second": faulted["frames_per_second"],
        "recovery_overhead": round(
            baseline["frames_per_second"]
            / max(faulted["frames_per_second"], 1e-9),
            3,
        ),
    }


def measure_shards(
    preset: str = "small",
    shards: int = 2,
    concurrency: int | None = None,
    batch_frames: int = DEFAULT_BATCH_FRAMES,
    seed: int | None = 1234,
) -> dict:
    """One vs ``shards`` shard processes over one shared segment.

    Runs the same seeded load twice through the sharded stack
    (:class:`~repro.serve.shard.ShardedServer` + consistent-hash
    routed :class:`~repro.serve.client.ShardedClient`): once with a
    single shard, once with ``shards``.  Both passes must reproduce
    the sequential reference transcripts bit-for-bit (the shards
    decode the shared quantized recognizer, so the reference is the
    serial :class:`~repro.asr.parallel.DecodePool`).  Reports the
    frames/s scaling ratio and each shard's memory: RSS, USS, and how
    many of the shared segment's pages it privatized — the paper's
    shared-dataset argument says that last number stays ~0 while the
    recognizer is mapped, not copied.
    """
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    if shards < 2:
        raise ValueError("the comparison needs shards >= 2")
    if concurrency is None:
        # Enough concurrent sessions that every shard in the wide pass
        # has work; identical offered load on both passes.
        concurrency = 4 * shards
    bundle = get_bundle(PRESETS[preset])
    scores = bundle.scores
    config = DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE, vectorized=True)

    from repro.asr.parallel import DecodePool

    with DecodePool(
        bundle.task.am,
        bundle.task.lm,
        scorer=bundle.scorer,
        config=config,
        parallelism=1,
    ) as ref_pool:
        expected = ref_pool.decode_streams(scores, batch_frames)

    passes = {}
    for label, count in (("single", 1), ("sharded", shards)):
        load, status, memory = asyncio.run(
            _drive_shards(
                bundle,
                config,
                shards=count,
                concurrency=concurrency,
                batch_frames=batch_frames,
                seed=seed,
            )
        )
        mismatched = [
            o.index
            for o in load.outcomes
            if o.words != expected[o.index].words
            or o.cost != expected[o.index].cost
        ]
        if mismatched:
            raise AssertionError(
                f"{label} pass transcripts diverge from the sequential "
                f"reference on utterances {mismatched}"
            )
        if len(load.outcomes) != len(scores):
            raise AssertionError(
                f"{label} pass completed {len(load.outcomes)} of "
                f"{len(scores)} utterances"
            )
        report = {
            "shards": count,
            "matches_sequential": True,
            "drained": status["active_sessions"] == 0,
            "status": status,
            "memory": memory,
        }
        report.update(load.to_dict())
        passes[label] = report

    shared_nbytes = passes["sharded"]["memory"]["shared_nbytes"]
    fractions = []
    for info in passes["sharded"]["memory"]["shards"]:
        mapping = info.get("segment") or {}
        private = mapping.get("private_bytes")
        if private is not None and shared_nbytes:
            fractions.append(private / shared_nbytes)
    per_shard_sessions = [
        s.get("metrics", {}).get("counters", {}).get("sessions_admitted", 0)
        for s in passes["sharded"]["status"]["shards"]
    ]
    return {
        "preset": preset,
        "task": bundle.task.name,
        "cpus": _visible_cpus(),
        "shards": shards,
        "concurrency": concurrency,
        "batch_frames": batch_frames,
        "seed": seed,
        "single": passes["single"],
        "sharded": passes["sharded"],
        "single_frames_per_second": passes["single"]["frames_per_second"],
        "sharded_frames_per_second": passes["sharded"]["frames_per_second"],
        "shard_scaling": round(
            passes["sharded"]["frames_per_second"]
            / max(passes["single"]["frames_per_second"], 1e-9),
            3,
        ),
        "shared_nbytes": shared_nbytes,
        "sessions_per_shard": per_shard_sessions,
        "max_segment_private_fraction": (
            round(max(fractions), 6) if fractions else None
        ),
    }


async def _drive_shards(
    bundle,
    config: DecoderConfig,
    shards: int,
    concurrency: int,
    batch_frames: int,
    seed: int | None,
):
    """Sharded server up, routed load through, status + memory out."""
    from repro.serve import ServeConfig, ShardedServer
    from repro.serve.client import ShardedClient
    from repro.serve.loadgen import run_load

    server = ShardedServer(
        bundle.task.am,
        bundle.task.lm,
        scorer=bundle.scorer,
        decoder_config=config,
        serve_config=ServeConfig(max_sessions=max(concurrency, 2)),
        shards=shards,
    )
    async with server:
        client = ShardedClient(server.endpoints)
        try:
            load = await run_load(
                client,
                bundle.scores,
                concurrency=concurrency,
                batch_frames=batch_frames,
                seed=seed,
            )
        finally:
            await client.close()
        status = await server.status()
        memory = await server.memory_report()
    return load, status, memory


async def _drive(
    bundle,
    config: DecoderConfig,
    concurrency: int,
    batch_frames: int,
    transport: str,
    workers: int,
    max_sessions: int,
    max_queued_batches: int,
    fuse_sessions: bool = True,
    seed: int | None = None,
    abort_fraction: float = 0.0,
    chaos=None,
    request_timeout: float | None = None,
    payload: str = "scores",
    encoding: str = "list",
):
    """Server up, load through, graceful drain down."""
    from repro.serve import ServeConfig, TcpClient, TranscriptionServer
    from repro.serve.loadgen import run_load

    serve_config = ServeConfig(
        port=0 if transport == "tcp" else None,
        max_sessions=max_sessions,
        max_queued_batches=max_queued_batches,
        workers=workers,
        fuse_sessions=fuse_sessions,
        engine_request_timeout_seconds=(
            request_timeout if request_timeout is not None else 30.0
        ),
    )
    server = TranscriptionServer(
        bundle.task.am,
        bundle.task.lm,
        decoder_config=config,
        serve_config=serve_config,
        scorer=bundle.scorer,
        chaos=chaos,
    )
    await server.start()
    try:
        if transport == "tcp":
            client = await TcpClient.connect(server.config.host, server.port)
        else:
            client = server.connect_local()
        try:
            load = await run_load(
                client,
                bundle.scores,
                concurrency=concurrency,
                batch_frames=batch_frames,
                seed=seed,
                abort_fraction=abort_fraction,
                feature_matrices=(
                    [u.features for u in bundle.utterances]
                    if payload == "features"
                    else None
                ),
                payload=payload,
                encoding=encoding,
            )
        finally:
            await client.close()
        # Weigh the workers after the load, while their channel state
        # has peaked (the point of the measurement: that state, not the
        # recognizer, is all a worker privately holds).
        memory = (
            server.engine.memory_report()
            if hasattr(server.engine, "memory_report")
            else None
        )
    finally:
        await server.stop(drain=True)
    drained = server.scheduler.active_sessions == 0
    return load, server.metrics.snapshot(), drained, memory


def check_serve_report(
    report: dict,
    fail_fps_below: float | None = None,
    fail_p95_above: float | None = None,
) -> tuple[list[str], list[str]]:
    """Evaluate the serving regression gates against a measured report.

    Returns ``(failures, notes)`` like
    :func:`repro.experiments.perf_decode.check_report`.  Gates:

    * ``fail_fps_below`` — floor on served frames per second;
    * ``fail_p95_above`` — ceiling (seconds) on the p95 per-push decode
      latency seen by clients.

    Correctness invariants (``matches_sequential``, ``drained``, at
    least one decoded frame in the server's own metrics) are always
    checked — a report that flunks those is wrong, not just slow.
    """
    if "fused" in report and "unfused" in report:
        raise ValueError(
            "got a fusion-comparison report; use check_fusion_report"
        )
    failures: list[str] = []
    notes: list[str] = []
    if not report.get("matches_sequential"):
        failures.append("served transcripts diverged from sequential decode")
    if not report.get("drained"):
        failures.append("graceful stop left sessions undrained")
    served = (
        report.get("metrics", {}).get("counters", {}).get("frames_decoded", 0)
    )
    if served <= 0:
        failures.append("server metrics report zero decoded frames")
    else:
        notes.append(f"server metrics: {served} frames decoded")
    if fail_fps_below is not None:
        fps = report["frames_per_second"]
        if fps < fail_fps_below:
            failures.append(
                f"serve throughput {fps} frames/s is below the "
                f"{fail_fps_below} frames/s floor"
            )
        else:
            notes.append(f"serve throughput {fps} frames/s")
    if fail_p95_above is not None:
        p95 = report["latency"]["push_seconds"].get("p95")
        if p95 is None:
            failures.append("no push-latency samples to gate on")
        elif p95 > fail_p95_above:
            failures.append(
                f"serve push p95 {p95:.4f}s exceeds the "
                f"{fail_p95_above}s ceiling"
            )
        else:
            notes.append(f"serve push p95 {p95:.4f}s")
    return failures, notes


def check_fusion_report(
    comparison: dict,
    fail_fusion_speedup_below: float | None = None,
    fail_kernel_calls_per_batch_above: float | None = None,
) -> tuple[list[str], list[str]]:
    """Gates for a :func:`measure_fusion` comparison.

    * ``fail_fusion_speedup_below`` — floor on fused/unfused frames
      per second at the comparison's concurrency;
    * ``fail_kernel_calls_per_batch_above`` — ceiling on engine
      dispatches per decoded batch with fusion on (1.0 means no batch
      ever fused; 1/N means every dispatch carried N sessions).

    Both passes' correctness invariants are re-checked first.
    """
    failures: list[str] = []
    notes: list[str] = []
    for label in ("fused", "unfused"):
        sub_failures, _ = check_serve_report(comparison[label])
        failures.extend(f"{label}: {line}" for line in sub_failures)
    if fail_fusion_speedup_below is not None:
        speedup = comparison["fusion_speedup"]
        if speedup < fail_fusion_speedup_below:
            failures.append(
                f"session fusion speedup {speedup}x "
                f"({comparison['unfused_frames_per_second']} -> "
                f"{comparison['fused_frames_per_second']} frames/s at "
                f"{comparison['concurrency']} sessions) is below the "
                f"{fail_fusion_speedup_below}x floor"
            )
        else:
            notes.append(
                f"session fusion speedup {speedup}x at "
                f"{comparison['concurrency']} sessions"
            )
    if fail_kernel_calls_per_batch_above is not None:
        ratio = comparison["fused_kernel_calls_per_batch"]
        if ratio is None:
            failures.append("no decoded batches to gate kernel calls on")
        elif ratio > fail_kernel_calls_per_batch_above:
            failures.append(
                f"fused serving made {ratio} kernel calls per decoded "
                f"batch, above the {fail_kernel_calls_per_batch_above} "
                f"ceiling"
            )
        else:
            notes.append(
                f"fused kernel calls per batch {ratio} "
                f"(unfused {comparison['unfused_kernel_calls_per_batch']})"
            )
    return failures, notes


def check_recovery_report(
    comparison: dict,
    fail_recovery_below: float | None = None,
    fail_migration_p95_above: float | None = None,
) -> tuple[list[str], list[str]]:
    """Gates for a :func:`measure_recovery` comparison.

    * ``fail_recovery_below`` — floor on the fraction of admitted
      sessions that survived the worker kill (completed with a
      bit-identical final rather than being lost);
    * ``fail_migration_p95_above`` — ceiling (seconds) on the p95
      latency of one recovery sweep (detect dead worker, respawn,
      restore every orphaned session from checkpoint + replay).

    Always checked, gate flags or not: both passes' correctness
    invariants, that the fault actually fired (at least one worker
    restart), and that at least one session migrated — a chaos bench
    where nothing died proves nothing.
    """
    failures: list[str] = []
    notes: list[str] = []
    for label in ("baseline", "faulted"):
        sub_failures, _ = check_serve_report(comparison[label])
        failures.extend(f"{label}: {line}" for line in sub_failures)
    if comparison["worker_restarts"] < 1:
        failures.append(
            "chaos pass recorded no worker restarts — the injected "
            "fault never fired"
        )
    if comparison["sessions_migrated"] < 1:
        failures.append(
            "chaos pass migrated no sessions — the kill landed on an "
            "idle worker, so recovery went unexercised"
        )
    else:
        notes.append(
            f"{comparison['sessions_migrated']} session(s) migrated "
            f"across {comparison['worker_restarts']} worker restart(s), "
            f"{comparison['checkpoints_taken']} checkpoints taken"
        )
    if fail_recovery_below is not None:
        rate = comparison["recovery_rate"]
        if rate < fail_recovery_below:
            failures.append(
                f"recovery rate {rate} ({comparison['sessions_lost']} "
                f"session(s) lost) is below the "
                f"{fail_recovery_below} floor"
            )
        else:
            notes.append(f"recovery rate {rate}")
    if fail_migration_p95_above is not None:
        summary = comparison.get("migration_seconds") or {}
        p95 = summary.get("p95")
        if p95 is None:
            failures.append("no migration-latency samples to gate on")
        elif p95 > fail_migration_p95_above:
            failures.append(
                f"migration p95 {p95:.4f}s exceeds the "
                f"{fail_migration_p95_above}s ceiling"
            )
        else:
            notes.append(f"migration p95 {p95:.4f}s")
    return failures, notes


def check_shard_report(
    comparison: dict,
    fail_shard_scaling_below: float | None = None,
    fail_segment_private_fraction_above: float | None = None,
) -> tuple[list[str], list[str]]:
    """Gates for a :func:`measure_shards` comparison.

    * ``fail_shard_scaling_below`` — floor on frames/s going from one
      shard to ``shards`` at equal offered load, skipped (with a
      note) when the harness saw a single CPU, where shard processes
      cannot overlap;
    * ``fail_segment_private_fraction_above`` — ceiling on the fraction
      of the shared segment any shard privatized (its "incremental
      RSS" for the recognizer, as a fraction of the bundle's size).

    Always checked: both passes' transcript parity and drain, and that
    the sharded pass actually spread sessions over more than one shard
    (a routing bug that pins everything to shard 0 would otherwise
    gate as a mere slowdown).
    """
    failures: list[str] = []
    notes: list[str] = []
    for label in ("single", "sharded"):
        sub = comparison[label]
        if not sub.get("matches_sequential"):
            failures.append(
                f"{label}: transcripts diverged from the sequential "
                f"reference"
            )
        if not sub.get("drained"):
            failures.append(f"{label}: sessions left active after the load")
    spread = comparison.get("sessions_per_shard") or []
    busy_shards = sum(1 for count in spread if count > 0)
    if busy_shards < 2:
        failures.append(
            f"sharded pass routed every session to {busy_shards} "
            f"shard(s) ({spread}); the ring spread nothing"
        )
    else:
        notes.append(f"sessions per shard: {spread}")
    if fail_shard_scaling_below is not None:
        scaling = comparison["shard_scaling"]
        if comparison["cpus"] < 2:
            notes.append(
                f"shard scaling gate skipped: {comparison['cpus']} "
                f"visible cpu(s); measured {scaling}x for the record"
            )
        elif scaling < fail_shard_scaling_below:
            failures.append(
                f"shard scaling {scaling}x "
                f"({comparison['single_frames_per_second']} -> "
                f"{comparison['sharded_frames_per_second']} frames/s at "
                f"{comparison['shards']} shards) is below the "
                f"{fail_shard_scaling_below}x floor"
            )
        else:
            notes.append(
                f"shard scaling {scaling}x at {comparison['shards']} shards"
            )
    if fail_segment_private_fraction_above is not None:
        fraction = comparison["max_segment_private_fraction"]
        if fraction is None:
            failures.append(
                "no segment-mapping samples to gate per-shard "
                "incremental memory on"
            )
        elif fraction > fail_segment_private_fraction_above:
            failures.append(
                f"a shard privatized {fraction:.2%} of the shared "
                f"{comparison['shared_nbytes']}-byte segment, above the "
                f"{fail_segment_private_fraction_above:.0%} ceiling"
            )
        else:
            notes.append(
                f"max segment pages privatized per shard {fraction:.2%} "
                f"of {comparison['shared_nbytes']} bytes"
            )
    return failures, notes


def _to_result(report: dict) -> ExperimentResult:
    latency = report["latency"]

    def ms(summary: dict, key: str):
        value = summary.get(key)
        return None if value is None else round(1e3 * value, 2)

    rows = [
        {
            "transport": report["transport"],
            "workers": report["workers"],
            "concurrency": report["concurrency"],
            "utterances": report["utterances"],
            "frames": report["frames"],
            "utt_per_sec": report["utterances_per_second"],
            "frames_per_sec": report["frames_per_second"],
            "busy": report["busy_rejections"],
            "push_p50_ms": ms(latency["push_seconds"], "p50"),
            "push_p95_ms": ms(latency["push_seconds"], "p95"),
            "first_partial_p95_ms": ms(
                latency["first_partial_seconds"], "p95"
            ),
        }
    ]
    notes = (
        f"preset={report['preset']} batch_frames={report['batch_frames']} "
        f"on {report['cpus']} cpu(s); transcripts match sequential "
        f"streaming, drain clean"
    )
    fusion = report.get("fusion")
    if fusion:
        notes += (
            f"; session fusion at {fusion['concurrency']} sessions: "
            f"{fusion['unfused_frames_per_second']} -> "
            f"{fusion['fused_frames_per_second']} frames/s "
            f"({fusion['fusion_speedup']}x, "
            f"{fusion['fused_kernel_calls_per_batch']} kernel calls/batch)"
        )
    recovery = report.get("recovery")
    if recovery:
        migration = recovery.get("migration_seconds") or {}
        p95 = migration.get("p95")
        notes += (
            f"; worker-kill recovery: {recovery['sessions_migrated']} "
            f"session(s) migrated, recovery rate "
            f"{recovery['recovery_rate']}, "
            f"{recovery['recovery_overhead']}x throughput overhead"
            + (f", migration p95 {1e3 * p95:.1f}ms" if p95 is not None else "")
        )
    sharding = report.get("sharding")
    if sharding:
        fraction = sharding.get("max_segment_private_fraction")
        notes += (
            f"; {sharding['shards']}-shard scaling "
            f"{sharding['shard_scaling']}x "
            f"({sharding['single_frames_per_second']} -> "
            f"{sharding['sharded_frames_per_second']} frames/s) over one "
            f"{sharding['shared_nbytes']}-byte shared segment"
            + (
                f", max {fraction:.2%} of it privatized per shard"
                if fraction is not None
                else ""
            )
        )
    return ExperimentResult(
        experiment_id="serve-bench",
        title="streaming service throughput and latency (regression harness)",
        rows=rows,
        notes=notes,
    )


def run() -> ExperimentResult:
    return _to_result(measure(preset="small", concurrency=2))


def write_bench_report(
    preset: str = "small",
    output: str | Path = "BENCH_serve.json",
    concurrency: int = DEFAULT_CONCURRENCY,
    batch_frames: int = DEFAULT_BATCH_FRAMES,
    transport: str = "local",
    workers: int = 1,
    seed: int | None = 1234,
    fusion_concurrency: int = 8,
    abort_fraction: float = 0.0,
    shards: int = 2,
    payload: str = "scores",
    encoding: str = "list",
) -> ExperimentResult:
    """Measure one preset and persist ``BENCH_serve.json``.

    Besides the primary pass, the persisted report carries a
    ``fusion`` section (:func:`measure_fusion` at
    ``fusion_concurrency`` in-process sessions), a ``recovery`` section
    (:func:`measure_recovery` — a seeded worker kill with checkpoint
    migration), and a ``sharding`` section (:func:`measure_shards` —
    one vs ``shards`` shard processes over one shared segment, with
    per-shard memory) so every serving gate has its comparison on
    record.  ``shards=0`` skips that section.

    ``payload``/``encoding`` pick what the primary pass streams
    (``scores`` exactly, or ``features`` for server-side scoring —
    parity-asserted against the sequential reference either way) and
    how matrices cross the wire (``list`` or ``b64f32``).
    """
    report = measure(
        preset=preset,
        concurrency=concurrency,
        batch_frames=batch_frames,
        transport=transport,
        workers=workers,
        seed=seed,
        abort_fraction=abort_fraction,
        payload=payload,
        encoding=encoding,
    )
    report["fusion"] = measure_fusion(
        preset=preset,
        concurrency=fusion_concurrency,
        batch_frames=batch_frames,
        seed=seed,
    )
    report["recovery"] = measure_recovery(
        preset=preset,
        concurrency=concurrency,
        batch_frames=batch_frames,
        seed=seed,
    )
    if shards >= 2:
        report["sharding"] = measure_shards(
            preset=preset,
            shards=shards,
            batch_frames=batch_frames,
            seed=seed,
        )
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return _to_result(report)
