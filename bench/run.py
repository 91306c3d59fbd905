"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --seed 1                     # all four workloads
    python3 bench/run.py --seed 1 --trace 1           # + per-layer budget
    python3 bench/run.py --workload serve_saturate --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --compare A.jsonl B.jsonl    # apply the bounds

Each workload runs in fresh recognizer processes (see
``offline_child.py`` / ``server_child.py``); this process only
orchestrates them and, on the serve workloads, is the load generator.
Rates, CPU cost and set-up time are corrected for the speed of the host
while they were measured (``common.HostClock``); the readings as taken
are reported beside them under ``host.``.
Work is **fixed by ``--seconds`` and ``--seed``** (utterance and session
counts sized so the timed phase takes about ``--seconds`` on the
reference host), never cut off by the clock, so counts and transcripts
repeat exactly.  With ``--trace 1`` the work is halved and sent twice —
untraced, then traced — so a traced invocation costs the same time.

With ``--workload`` the last line of stdout is the driver's JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) holding exactly
the metrics ``BENCHMARK.json`` names for that trace mode.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from common import (
    BENCH_DIR,
    POOL_SIZE,
    PUSH_PERIOD_S,
    REFERENCE_SECONDS,
    ROOT,
    SETUP_REPEATS,
    STREAMS,
    THREAD_ENV,
    WARMUP_OPS,
    WORKLOADS,
    build_recognizer,
    child_env,
    fixed_work,
    host_speed,
    median,
    metric,
    proc_peak_rss_mib,
    provenance,
    require_src,
    sample_utterances,
    seed_inputs,
    transcript_digest,
)

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: ``BENCHMARK.json`` wants one name per metric on every workload; the
#: per-operation latency is the utterance's offline and the push's on
#: the serve workloads.
ALIASES = {
    "latency_p50_ms": ("utt_p50_ms", "push_p50_ms"),
    "latency_p95_ms": ("utt_p95_ms", "push_p95_ms"),
}
#: Compared for exact equality by ``--compare`` (besides every count
#: under ``core.``): they must repeat for a seed unless bit-identity broke.
EXACT = ("wer", "failed_frac")
QUICK_SECONDS = 1.0
WATCHDOG_S = 170


class Child:
    """A recognizer child process speaking JSON lines on stdout.

    A context manager: leaving it closes the child's stdin (the
    server's stop signal) and waits for the exit, killing the child
    first when an exception is on its way out.
    """

    def __init__(self, script: str, argument: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), argument],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
        )
        self.pid = self.process.pid

    def read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"bench child exited with code {self.process.wait()} "
                "before reporting"
            )
        return json.loads(line)

    def ask(self) -> dict:
        """Send an empty line and read the answer (the server child's
        host-clock ticks since the last)."""
        self.process.stdin.write(b"\n")
        self.process.stdin.flush()
        return self.read()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self.process.kill()
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


def setup_metrics(samples: list, breakdown: dict) -> dict:
    """``samples`` holds (wall seconds, host speed meanwhile) per set-up."""
    count = len(samples)
    metrics = {
        "setup_s": metric(median([s * speed for s, speed in samples]), "s", count),
        "host.setup_s_raw": metric(median([s for s, _ in samples]), "s", count),
    }
    for name, value in breakdown.items():
        metrics[name] = metric(value, "s")
    return metrics


def run_offline(workload, seed, seconds, trace, corrupt_final, repeats):
    spec = {"workload": workload.name, "seed": seed,
            "ops": fixed_work(workload, seconds),
            "trace": trace, "corrupt_final": corrupt_final}
    samples = []
    for repeat in range(repeats):
        last = repeat == repeats - 1
        mark = perf_counter()
        with Child(
            "offline_child.py", json.dumps(dict(spec, setup_only=not last))
        ) as child:
            ready = child.read()
            samples.append((perf_counter() - mark, ready["host_speed"]))
            if last:
                result = child.read()
    result["metrics"].update(setup_metrics(samples, ready["setup"]))
    result["windows"]["setup"] = samples
    return result


def serve_inputs(workload, task, scorer, seed, seconds):
    """Pool, plan and op -> pool index map, all drawn from ``--seed``."""
    import numpy as np

    from loadgen import prepare_pool

    rng = seed_inputs(task, seed)
    if workload.open_loop:
        utterances = sample_utterances(task, POOL_SIZE, workload.max_words)
        pool = prepare_pool(
            utterances, workload.payload, [u.features for u in utterances]
        )
        # Each stream plays the pool in a seeded order of its own, again
        # and again, until it has sent ``seconds`` of speech: every run
        # plays every utterance about as often.  A speaker starts each
        # utterance a fraction of a push period after the last (the first
        # entry is the stream's start offset), so the streams' relative
        # phases — which decide whether pushes queue or fuse — are redrawn
        # every utterance instead of being fixed for a run by its seed.
        playlists = []
        for _ in range(STREAMS):
            playlist, speech = [], 0.0
            while speech < seconds:
                for index in rng.permutation(len(pool)).tolist():
                    if speech >= seconds:
                        break
                    playlist.append(
                        (index, float(rng.uniform(0.0, PUSH_PERIOD_S)))
                    )
                    speech += PUSH_PERIOD_S * len(pool[index].tails)
            playlists.append(playlist)
        return pool, playlists, [i for p in playlists for i, _ in p]
    count = fixed_work(workload, seconds)
    utterances = sample_utterances(task, count, workload.max_words)
    pool = prepare_pool(
        utterances, workload.payload,
        [scorer.score(u.features) for u in utterances],
    )
    plan = rng.permutation(np.repeat(np.arange(count), STREAMS)).tolist()
    return pool, plan, plan


def run_serve(workload, seed, seconds, trace, corrupt_final, repeats):
    require_src()
    from loadgen import (
        Replay,
        check_finals,
        end_to_end_metrics,
        layer_metrics,
        run_pass,
    )
    from repro.asr import word_error_rate

    task, scorer, _ = build_recognizer(workload)
    pool, plan, op_pool = serve_inputs(workload, task, scorer, seed, seconds)
    samples = []
    traced = None
    for repeat in range(repeats):
        mark = perf_counter()
        with Child("server_child.py", workload.name) as server:
            ready = server.read()

            def send(plan, open_loop=False, traced=False):
                result = asyncio.run(
                    run_pass(ready["port"], server.pid, workload.payload,
                             open_loop, plan, pool, traced)
                )
                result.ticks = server.ask()["ticks"]
                return result

            warmup = send(list(range(WARMUP_OPS)))
            samples.append((perf_counter() - mark, host_speed(warmup.ticks)))
            if any(record.final is None for record in warmup.records):
                raise RuntimeError("warm-up sessions failed")
            if repeat == repeats - 1:
                untraced = send(plan, workload.open_loop)
                peak_rss = proc_peak_rss_mib(server.pid)
                if trace:
                    traced = send(plan, workload.open_loop, traced=True)
    ready["setup"]["setup.warmup_s"] = warmup.wall_s

    weights = [0] * len(pool)
    for index in op_pool:
        weights[index] += 1
    replay = Replay(task, scorer, workload)
    references = replay.reference(pool, weights)
    failed = check_finals(untraced.records, op_pool, references, corrupt_final)
    finals = [r.final or ([], float("nan")) for r in untraced.records]
    wer = word_error_rate(
        [pool[index].words for index in op_pool], [f[0] for f in finals]
    )
    metrics, flags, rates = end_to_end_metrics(
        untraced, workload, peak_rss, wer, failed
    )
    metrics.update(setup_metrics(samples, ready["setup"]))
    rates["setup"] = samples
    if traced is not None:
        if check_finals(traced.records, op_pool, references, False):
            flags.append("traced_pass_differs")
        metrics.update(
            layer_metrics(traced, workload, pool, op_pool, weights,
                          replay, metrics["frames_per_s"]["value"])
        )
    return {
        "attempted": len(untraced.records),
        "failed": len(failed),
        "frames": sum(r.frames for r in untraced.records),
        "timed_wall_s": untraced.wall_s,
        "reference_checked": len(untraced.records),
        "transcript_digest": transcript_digest(finals),
        "flags": flags,
        "windows": rates,
        "metrics": metrics,
    }


def run_workload(name, seed, seconds, trace, corrupt_final=False,
                 repeats=SETUP_REPEATS) -> dict:
    """One workload, start to finish; returns its full result."""
    workload = WORKLOADS[name]
    run = run_offline if workload.kind == "offline" else run_serve
    # A traced run does the work twice, so it does half as much.
    result = run(workload, seed, seconds / 2 if trace else seconds, trace,
                 corrupt_final, repeats)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": seconds / REFERENCE_SECONDS,
        "correct": result["failed"] == 0
        and "traced_pass_differs" not in result["flags"],
        **result,
    }


# -- output ------------------------------------------------------------------


def print_report(result: dict) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']} "
        f"scale={result['scale']:.3g}"
    )
    print(
        f"   correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} frames={result['frames']} "
        f"reference_checked={result['reference_checked']} "
        f"timed_wall_s={result['timed_wall_s']:.3f}"
    )
    print(f"   transcript_digest={result['transcript_digest']}")
    if result["flags"]:
        print(f"   INVALID: {', '.join(result['flags'])}")
    for name, entry in result["metrics"].items():
        samples = f"  (n={entry['n']})" if entry.get("n") is not None else ""
        print(f"   {name:32s} {entry['value']:>16.6g} {entry['unit']}{samples}")
    sys.stdout.flush()


def contract_result(result: dict) -> dict:
    """The driver's object: exactly the metrics ``BENCHMARK.json`` names
    for this trace mode.  A per-layer metric of a layer the workload
    never enters (``serve.*`` offline, ``am.*`` on score payloads) is 0."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    measured = result["metrics"]
    metrics = {}
    for entry in spec["per_layer" if result["trace"] else "end_to_end"]:
        name = entry["name"]
        found = next(
            (measured[n] for n in (name,) + ALIASES.get(name, ())
             if n in measured),
            None,
        )
        if found is None:
            if not result["trace"]:
                raise SystemExit(
                    f"bench: invalid run, no {name}: {result['flags']}"
                )
            found = {"value": 0}
        metrics[name] = {"value": found["value"], "unit": entry["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# -- compare -----------------------------------------------------------------


def load_runs(path: str) -> list:
    """Invocation records: one JSON document per line (``--history``)."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def metric_values(runs: list, workload: str, names: tuple) -> list:
    values = []
    for run in runs:
        measured = run["workloads"].get(workload, {}).get("metrics", {})
        for name in names:
            if name in measured:
                values.append(measured[name]["value"])
                break
    return values


def relative_spread(values: list) -> float:
    """Interquartile range over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(path_a: str, path_b: str) -> int:
    """B against A under the bounds in ``BENCHMARK.json``; 1 if worse."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    worse = 0
    for workload in WORKLOADS:
        for entry in spec["end_to_end"]:
            names = (entry["name"],) + ALIASES.get(entry["name"], ())
            a = metric_values(runs_a, workload, names)
            b = metric_values(runs_b, workload, names)
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            change = (new - base) / abs(base)
            if entry["better"] == "higher":
                change = -change
            spread = max(relative_spread(a), relative_spread(b))
            if spread > entry["bound"]:
                verdict = "unresolved"
            elif change > entry["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{verdict:10s} {workload:15s} {entry['name']:18s} "
                f"A={base:.6g} B={new:.6g} worse_by={change:+.2%} "
                f"bound={entry['bound']:.0%} spread={spread:.2%}"
            )
        first_a = runs_a[0]["workloads"].get(workload)
        first_b = runs_b[0]["workloads"].get(workload)
        if not first_a or not first_b:
            continue
        exact = {"transcript_digest": (first_a["transcript_digest"],
                                       first_b["transcript_digest"])}
        for name, entry in first_a["metrics"].items():
            is_count = name.startswith("core.") and entry["unit"] == "count"
            if (name in EXACT or is_count) and name in first_b["metrics"]:
                exact[name] = (entry["value"], first_b["metrics"][name]["value"])
        differing = [name for name, (x, y) in exact.items() if x != y]
        worse += len(differing)
        print(
            f"{'differs' if differing else 'equal':10s} {workload:15s} "
            f"{len(exact)} exact values"
            + (f": {', '.join(differing)}" if differing else "")
        )
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------


def watchdog(signum, frame) -> None:
    raise TimeoutError(f"bench: no result after {WATCHDOG_S} s")



def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: ~1 s of work, one set-up")
    parser.add_argument("--history", metavar="FILE",
                        help="append this invocation as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--corrupt-final", action="store_true",
                        help=argparse.SUPPRESS)  # test-only failure hook
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    os.environ.update(THREAD_ENV)  # this process scores and replays too
    require_src()
    seconds = args.seconds
    if seconds is None:
        seconds = (
            QUICK_SECONDS if args.quick
            else json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
        )
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.workload:
        # The driver allows a run 180 s: fail (children killed on the way
        # out) rather than hang on a wedged server.
        signal.signal(signal.SIGALRM, watchdog)
        signal.alarm(WATCHDOG_S)
    host = provenance()
    print("provenance " + json.dumps(host))
    results = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, seconds, bool(args.trace), args.corrupt_final,
            1 if args.quick else SETUP_REPEATS,
        )
        print_report(results[name])
    if args.history:
        record = {
            "provenance": host,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "workloads": results,
        }
        with open(args.history, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    if args.workload:
        print(json.dumps(contract_result(results[args.workload])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
