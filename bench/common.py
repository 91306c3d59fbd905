"""Pieces shared by every process of the repo benchmark.

The benchmark lives entirely under ``bench/`` and drives the program
through its public APIs only (``repro.asr.AsrSystem.transcribe`` and
``repro.serve.TranscriptionServer`` over the NDJSON TCP wire).  This
module holds what more than one benchmark process needs: the workload
table, recognizer construction with per-step timings, the span
recorder, ``/proc`` readers, and small statistics helpers.

Importing it touches nothing outside the standard library; ``repro``
and numpy are imported inside the functions that need them, after
:func:`require_src` put ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Math-library threads are pinned to one in every recognizer process:
#: the host has two cores, and a serve workload already runs a server
#: and a load generator.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Frames per wire push on both serve workloads (80 ms of speech).
PUSH_FRAMES = 8
#: One push is due every this many seconds on the open-loop workload.
PUSH_PERIOD_S = 0.080
#: Concurrent sessions / streams on both serve workloads.
STREAMS = 8
#: ``busy`` replies tolerated per request before it counts as failed.
MAX_BUSY_RETRIES = 50
BUSY_BACKOFF_S = 0.01
#: Untimed warm-up operations before the clock starts (part of set-up).
WARMUP_OPS = 4
#: Utterances the scalar reference re-decodes on an offline workload.
REFERENCE_SAMPLE = 4
#: Distinct utterances the open-loop playlists draw from.
POOL_SIZE = 24
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rates are taken per window — one cycle of utterance lengths offline,
#: ``WINDOW_S`` of traffic on the serve workloads — each corrected for
#: the host's speed during that window (see :class:`HostClock`), and the
#: metric is the median over windows.
WINDOW_S = 0.5
#: The server child runs one host-clock slice every this many seconds.
TICK_PERIOD_S = 0.1
#: CPU seconds one host-clock slice takes while this host is quiet; it
#: only fixes the scale, so corrected rates read as a quiet host's would.
REFERENCE_SLICE_S = 0.0033

#: ISSUE 15 sized the workloads for ~30 s timed phases on this host
#: (48k / 75k offline frames, a pool of 200 replayed 8 times, 35 s of
#: speech per stream).  Work scales with ``--seconds`` from those sizes,
#: so the driver's ``run_seconds`` shrinks all four by one common
#: factor, reported as ``scale``.
REFERENCE_SECONDS = 30.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload (names are fixed; issues cite them).
    Why each exists is recorded in ``BENCHMARK.json`` and the README."""

    name: str
    kind: str  # "offline" or "serve"
    preset: str  # TaskConfig constant in repro.asr
    hidden: int = 192  # build_scorer's hidden width (its default)
    max_words: int = 10
    #: Fixed work per second of ``--seconds``: utterances (offline),
    #: pool utterances (closed loop; each is replayed ``STREAMS`` times).
    #: The open loop is paced, so its work is ``seconds`` of speech per
    #: stream by construction.
    ops_per_s: float = 0.0
    payload: str = "scores"
    open_loop: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="offline_wide",
            kind="offline",
            preset="KALDI_TEDLIUM",
            max_words=12,
            ops_per_s=336 / REFERENCE_SECONDS,
        ),
        Workload(
            name="offline_rnn",
            kind="offline",
            preset="EESEN_TEDLIUM",
            hidden=512,
            max_words=12,
            ops_per_s=524 / REFERENCE_SECONDS,
        ),
        Workload(
            name="serve_saturate",
            kind="serve",
            preset="TINY",
            ops_per_s=300 / REFERENCE_SECONDS,
            payload="scores",
        ),
        Workload(
            name="serve_realtime",
            kind="serve",
            preset="KALDI_LIBRISPEECH",
            max_words=6,
            payload="features",
            open_loop=True,
        ),
    )
}


def require_src() -> None:
    """Put ``src/`` on ``sys.path`` or exit non-zero without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: {SRC}/repro not found; run from a checkout of the repo\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment of a recognizer child: pinned threads, ``src`` importable."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def pin_to_last_cpu() -> None:
    """Keep the server child on one CPU, so that all its threads share
    the CPU its host clock measures; the load generator is left the
    rest.  Nothing is pinned on a one-CPU host."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})


# -- recognizer construction (set-up) ---------------------------------------


def build_recognizer(workload: Workload, clock: "HostClock | None" = None):
    """``build_task`` + ``build_scorer`` with each step timed and, in a
    recognizer process, a host-clock tick after each.

    The recognizer is fixed by the preset's own ``TaskConfig.seed``;
    ``--seed`` never reaches it.
    """
    import repro.asr as asr

    timings = {}
    mark = perf_counter()
    task = asr.build_task(getattr(asr, workload.preset))
    timings["setup.task_build_s"] = perf_counter() - mark
    if clock is not None:
        clock.tick()
    mark = perf_counter()
    scorer = asr.build_scorer(task, hidden=workload.hidden)
    timings["setup.scorer_fit_s"] = perf_counter() - mark
    if clock is not None:
        clock.tick()
    return task, scorer, timings


def seed_inputs(task, seed: int):
    """Point the task's samplers at the input seed; returns the rng."""
    import numpy as np

    rng = np.random.default_rng(seed)
    task.grammar.rng = task.synthesizer.rng = rng
    return rng


def fixed_work(workload: Workload, seconds: float) -> int:
    """Utterances ``--seconds`` buys: whole cycles of utterance lengths."""
    cycle = workload.max_words
    return cycle * max(1, round(workload.ops_per_s * seconds / cycle))


def sample_utterances(task, count: int, max_words: int) -> list:
    """``count`` utterances whose word counts cycle 1..``max_words``.

    The mix of lengths is fixed and only the content follows the seed:
    an utterance's cost per frame, its latency and the process's peak
    memory track its length, so a free draw of lengths moved
    ``utt_p50_ms`` by 20 % and ``peak_rss_mb`` by 7 % from seed to seed
    — more than the changes the benchmark is there to detect.
    """
    utterances = []
    for index in range(count):
        wanted = 1 + index % max_words
        words = []
        while len(words) != wanted:  # a draw may end before ``wanted``
            words = task.grammar.sample_sentence(max_len=wanted)
        utterances.append(task.synthesizer.synthesize(words))
    return utterances


# -- the host's speed --------------------------------------------------------


class HostClock:
    """How fast this thread's CPU is running, sampled beside the work.

    The benchmark's host is a small VM whose vCPUs other tenants slow to
    about half speed for seconds or minutes at a time; no steal time is
    reported, CPU time stretches with wall time, and whole runs fall
    into a slow spell.  So each recognizer process runs, between the
    operations it times, ``tick``: one fixed slice of work whose CPU
    time is recorded with the time it ran.  A rate measured over an
    interval is then divided by :func:`host_speed` over that interval.

    A slice is ``SEARCH_ROUNDS`` rounds of the array operations the
    vectorized search is made of (gather, add, stable sort, mask,
    unique) on arrays the size of a frame's token set, then
    ``DISPATCH_ROUNDS`` pairs of tiny array operations whose cost is the
    interpreter's dispatch.  Slow spells stretch the first less than
    they stretch a decode and the second more; mixed in this proportion
    the slice stretched by the factor ``offline_wide``'s decodes did.
    The slices cost about 5 % of a recognizer's time, the same on every
    run and every commit.
    """

    SEARCH_ROUNDS = 7
    DISPATCH_ROUNDS = 1500
    TOKENS = 2048
    TABLE = 50_000

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._states = rng.integers(0, self.TOKENS, size=self.TOKENS)
        self._costs = rng.random(self.TOKENS)
        self._table = rng.random(self.TABLE)
        self._arcs = rng.integers(0, self.TABLE, size=self.TOKENS)
        self._small = rng.random(64)
        #: (``perf_counter`` when the slice ended, its CPU seconds).
        self.ticks: list = []
        for _ in range(3):  # page in, warm the allocator
            self._slice()

    def _slice(self) -> None:
        np = self._np
        for _ in range(self.SEARCH_ROUNDS):
            scored = self._table[self._arcs] + self._costs[self._states]
            order = np.argsort(scored, kind="stable")
            kept = scored[order] < 1.2
            np.unique(self._states[order][kept], return_index=True)
        small = self._small
        for _ in range(self.DISPATCH_ROUNDS):
            small = small + 1.0
            small = small * 0.5

    def tick(self) -> None:
        started = thread_time()
        self._slice()
        self.ticks.append((perf_counter(), thread_time() - started))

    def drain(self) -> list:
        """The ticks since the last drain."""
        ticks, self.ticks = self.ticks, []
        return ticks


def host_speed(ticks, start: float = float("-inf"),
               end: float = float("inf")) -> float:
    """Speed of the host over [start, end] relative to the quiet host:
    ``REFERENCE_SLICE_S`` over the mean slice time of the ticks inside
    (of all ticks when none fell inside)."""
    inside = [s for t, s in ticks if start <= t <= end] or [s for _, s in ticks]
    return REFERENCE_SLICE_S * len(inside) / sum(inside)


# -- measurement helpers -----------------------------------------------------


def percentile(samples, pct: float) -> float:
    """The serve layer's own percentile rule, over unsorted samples."""
    from repro.serve.metrics import percentile as of_sorted

    return of_sorted(sorted(samples), pct)


def median(samples) -> float:
    return percentile(samples, 50.0)


def metric(value, unit: str, n: int | None = None) -> dict:
    """One reported metric; ``n`` is the sample count behind a timing."""
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


#: The rate metrics every workload reports, and their units.
RATE_UNITS = {
    "frames_per_s": "frames/s",
    "cpu_ms_per_frame": "ms",
    "host.speed": "ratio",
    "host.frames_per_s_raw": "frames/s",
    "host.cpu_ms_per_frame_raw": "ms",
}


def rate_metrics(windows, ticks, paced: bool = False) -> tuple[dict, dict]:
    """Throughput and CPU cost per frame from per-window totals, as raw
    readings and corrected for the host's speed during each window; the
    metric is the median over windows.  ``windows`` holds (start, end,
    frames, wall seconds, recognizer CPU seconds).  Returns the metrics
    and the per-window series behind them.

    A ``paced`` (open-loop) workload's throughput is its offered rate
    whatever the host's speed, so it is not corrected.
    """
    series = {name: [] for name in RATE_UNITS}
    for start, end, frames, wall_s, cpu_s in windows:
        speed = host_speed(ticks, start, end)
        raw_rate, raw_cost = frames / wall_s, 1e3 * cpu_s / frames
        series["host.speed"].append(speed)
        series["host.frames_per_s_raw"].append(raw_rate)
        series["host.cpu_ms_per_frame_raw"].append(raw_cost)
        series["frames_per_s"].append(raw_rate if paced else raw_rate / speed)
        series["cpu_ms_per_frame"].append(raw_cost * speed)
    metrics = {
        name: metric(median(values), RATE_UNITS[name], len(values))
        for name, values in series.items()
    }
    return metrics, series


def am_metrics(score_s: float, calls: int, frames: int) -> dict:
    """The ``am`` layer's metrics from timed ``scorer.score`` calls."""
    return {
        "am.score_s": metric(score_s, "s"),
        "am.score_calls": metric(calls, "count"),
        "am.frames": metric(frames, "count"),
        "am.us_per_frame": metric(1e6 * score_s / max(frames, 1), "us"),
    }


def transcript_digest(finals) -> str:
    """sha256 over words + ``cost.hex()`` of every final, in input order."""
    digest = hashlib.sha256()
    for words, cost in finals:
        digest.update(" ".join(words).encode("utf-8"))
        digest.update(b"|")
        digest.update(float(cost).hex().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def proc_cpu_seconds(pid: int | str = "self") -> float:
    """user+sys CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mib(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB — the paper's memory axis."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tracer:
    """In-memory span recorder; spans are written out when the run ends.

    A span is (name, start, end, parent span, trace id); the trace id
    is the utterance or session index.  ``aggregate`` marks a span
    whose duration is a sum over interleaved intervals (the decoder's
    per-phase totals), placed at its parent's start.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: int,
        parent: int | None = None,
        aggregate: bool = False,
    ) -> int:
        span = {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "trace": trace_id,
        }
        if aggregate:
            span["aggregate"] = True
        self.spans.append(span)
        return len(self.spans) - 1

    def write(self, workload: str) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace_{workload}.json"
        path.write_text(json.dumps({"workload": workload, "spans": self.spans}))
        return path


#: ``DecoderStats`` / ``LookupStats`` counters summed into ``core.*``.
DECODER_COUNTS = (
    "frames",
    "tokens_created",
    "tokens_recombined",
    "beam_pruned",
    "preemptive_pruned",
    "expansions",
    "words_emitted",
)
LOOKUP_COUNTS = (
    "lookups",
    "arc_probes",
    "backoff_arcs_taken",
    "olt_hits",
    "olt_misses",
    "expansion_hits",
    "expansion_misses",
    "expansion_evictions",
)
PHASES = ("expand", "epsilon", "other")


class CoreProbe:
    """Times ``OnTheFlyDecoder.decode`` from outside, one call at a time.

    Owns a decoder built with ``DecoderConfig(profile=True)`` (the
    public per-phase breakdown) and instance-level timing wrappers
    around its lookup's ``resolve_batch`` / ``resolve``.  ``weight``
    lets a serve workload decode each pool utterance once and count it
    for every session that replayed it: counts stay exact (sessions run
    on cold forked caches), times become an estimate.
    """

    def __init__(self, am, lm, config) -> None:
        from dataclasses import replace

        from repro.core.decoder import OnTheFlyDecoder

        self.decoder = OnTheFlyDecoder(am, lm, replace(config, profile=True))
        self.seconds = dict.fromkeys(("decode", "lookup") + PHASES, 0.0)
        self.counts = dict.fromkeys(DECODER_COUNTS + LOOKUP_COUNTS, 0)
        self.lookup_calls = self.active_sum = self.lattice_nodes = 0
        self._lookup = [0.0, 0]  # seconds, calls inside the current decode
        lookup = self.decoder.lookup
        lookup.resolve_batch = self._timed(lookup.resolve_batch)
        lookup.resolve = self._timed(lookup.resolve)

    def _timed(self, fn):
        totals = self._lookup

        def wrapper(*args, **kwargs):
            mark = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += perf_counter() - mark
                totals[1] += 1

        return wrapper

    def decode(self, scores, tracer: "Tracer", trace_id: int, parent=None,
               weight: int = 1):
        """Cold-cache decode of one score matrix, recorded as spans."""
        decoder = self.decoder
        self._lookup[:] = [0.0, 0]
        start = perf_counter()
        decoder.lookup.reset_transient_state()
        result = decoder.decode(scores)
        end = perf_counter()
        phases = dict(decoder.last_phase_seconds, lookup=self._lookup[0])
        span = tracer.add("core.decode", start, end, trace_id, parent)
        for name in PHASES + ("lookup",):
            tracer.add(f"core.{name}", start, start + phases[name], trace_id,
                       span, aggregate=True)
            self.seconds[name] += weight * phases[name]
        self.seconds["decode"] += weight * (end - start)
        self.lookup_calls += weight * self._lookup[1]
        stats = result.stats
        for name in DECODER_COUNTS:
            self.counts[name] += weight * getattr(stats, name)
        for name in LOOKUP_COUNTS:
            self.counts[name] += weight * getattr(stats.lookup, name)
        self.active_sum += weight * sum(stats.active_history)
        self.lattice_nodes += weight * len(result.lattice)
        return result

    def metrics(self) -> dict:
        counts, seconds = self.counts, self.seconds
        frames = max(counts["frames"], 1)
        out = {
            "core.decode_s": metric(seconds["decode"], "s"),
            # Lookup time is spent inside the epsilon phase: a part of it.
            "core.lookup_s": metric(seconds["lookup"], "s"),
            "core.lookup_calls": metric(self.lookup_calls, "count"),
            "core.us_per_frame": metric(1e6 * seconds["decode"] / frames, "us"),
            "core.ns_per_expansion": metric(
                1e9 * seconds["decode"] / max(counts["expansions"], 1), "ns"
            ),
            "core.avg_active_tokens": metric(self.active_sum / frames, "count"),
            "core.lattice_nodes": metric(self.lattice_nodes, "count"),
        }
        for name in PHASES:
            out[f"core.{name}_s"] = metric(seconds[name], "s")
        for name, value in counts.items():
            out[f"core.{name}"] = metric(value, "count")
        for kind in ("olt", "expansion"):
            hits = counts[f"{kind}_hits"]
            total = hits + counts[f"{kind}_misses"]
            out[f"core.{kind}_hit_ratio"] = metric(
                hits / total if total else 0.0, "ratio"
            )
        return out


# -- provenance --------------------------------------------------------------


def provenance() -> dict:
    """Host and build fingerprint recorded with every result."""
    import numpy as np

    from repro.asr.parallel import visible_cpus

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        governor = Path(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        ).read_text().strip()
    except OSError:
        governor = "unreadable"
    return {
        "commit": commit,
        "visible_cpus": visible_cpus(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "pinned_threads": dict(THREAD_ENV),
        "cpu_governor": governor,
    }
