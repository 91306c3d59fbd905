#!/usr/bin/env python
"""Which ``src/`` functions do the entry points reach?

Runs every entry point of the repository under a profile hook and
lists each function under ``src/repro`` that only the tier-1 tests
reach, or that nothing reaches::

    python tools/reach.py OUT                   # every phase (~30 min)
    python tools/reach.py OUT --phases tests    # re-run one phase

The hook is a ``sitecustomize`` module written to ``OUT/site`` and put
first on ``PYTHONPATH``, so every process counts: bench children,
forked shards and pool workers, spawned processes.  It records a
function (path under ``src/repro`` and qualified name) the first time
any thread of any process enters it, one line appended to ``OUT/calls-<phase>.txt`` per
function, so a process that leaves through ``os._exit`` or a kill
loses nothing already recorded.

Phases (entry points run with ``OUT`` as the working directory, so
nothing they write lands in the tree):

* ``tests``: the tier-1 suite;
* ``bench``: ``bench/run.py --quick`` on all four workloads, traced
  and untraced;
* ``examples``: every ``examples/*.py``;
* ``experiments``: every registered ``repro experiment`` id;
* ``cli``: ``repro sizes`` and ``repro decode`` (serial, two workers,
  scalar);
* ``serve``: ``repro serve`` with one shard and with two, each driven
  with scores and with features;
* ``tools``: ``tools/frame_step_crossover.py`` and
  ``tools/stage_memory.py``.

A phase's call file is kept until that phase runs again, so the report
can be rebuilt after re-running one phase, or after editing the
source or in another checkout: functions are matched by path and
qualified name, not by line.  A function
counts as reached by an entry point when any phase but ``tests``
entered it.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: How long a ``repro serve`` gets to stop after its SIGINT.
SERVE_STOP_SECONDS = 60

#: Installed as ``sitecustomize``: ``{log}`` and ``{package}`` are
#: filled in per phase.
HOOK = '''\
import os
import sys
import threading

_LOG = {log!r}
_PACKAGE = {package!r}
_seen = set()


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_PACKAGE):
        path = code.co_filename[len(_PACKAGE):]
        line = f"{{path}}:{{code.co_qualname}}\\n".encode()
        fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)


threading.setprofile(_hook)
sys.setprofile(_hook)
'''

#: Drives a running ``repro serve``: ``argv[1:]`` are ``host:port``
#: endpoints (more than one means shards).
SERVE_CLIENT = """
import asyncio
import sys

from repro.asr import TINY, build_scorer, build_task
from repro.serve import ShardedClient, TcpClient
from repro.serve.loadgen import run_load


async def main(endpoints):
    task = build_task(TINY)
    scorer = build_scorer(task)
    utterances = task.test_set(6, max_words=4)
    features = [u.features for u in utterances]
    scores = [scorer.score(f) for f in features]
    if len(endpoints) > 1:
        client = ShardedClient(endpoints)
    else:
        client = await TcpClient.connect(*endpoints[0])
    try:
        for payload in ("scores", "features"):
            report = await run_load(
                client, scores, concurrency=3, batch_frames=8, seed=0,
                feature_matrices=features, payload=payload,
            )
            print(payload, [o.words for o in report.outcomes])
    finally:
        await client.close()


endpoints = [tuple(e.rsplit(":", 1)) for e in sys.argv[1:]]
asyncio.run(main([(host, int(port)) for host, port in endpoints]))
"""

EXPERIMENT_IDS = """
from repro.experiments.registry import EXPERIMENTS
print(" ".join(EXPERIMENTS))
"""


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _repro(*args: str) -> list[str]:
    return _python("-m", "repro", *args)


def _env(site: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
    return env


def _run(command: list[str], env: dict, cwd: Path, log) -> None:
    log.write(f"$ {' '.join(command)}\n")
    log.flush()
    started = time.monotonic()
    code = subprocess.call(command, env=env, cwd=cwd, stdout=log, stderr=log)
    elapsed = time.monotonic() - started
    log.write(f"[exit {code} after {elapsed:.0f} s]\n")
    log.flush()
    label = " ".join(" ".join(command[1:]).split())
    print(f"  {label[:70]:70s} {elapsed:6.0f} s exit {code}")


def _serve(extra: list[str], env: dict, cwd: Path, log) -> None:
    """Start ``repro serve``, drive it with every payload, stop
    it as Ctrl-C would.

    The server runs in a session of its own, so a server that does not
    stop in time is killed with every shard it forked: none outlives
    the phase holding the output pipe.
    """
    command = _repro("serve", "tiny", *extra)
    log.write(f"$ {' '.join(command)}\n")
    log.flush()
    server = subprocess.Popen(
        command, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=log,
        text=True, start_new_session=True,
    )
    try:
        banner = server.stdout.readline()
        log.write(banner)
        words = banner.replace("(", " ").replace(")", " ").split()
        endpoints = [w for w in words if ":" in w and w.count(":") == 1]
        _run(_python("-c", SERVE_CLIENT, *endpoints), env, cwd, log)
    finally:
        server.send_signal(signal.SIGINT)
        try:
            out, _ = server.communicate(timeout=SERVE_STOP_SECONDS)
        except subprocess.TimeoutExpired:
            log.write(
                f"[server or its shards still running after "
                f"{SERVE_STOP_SECONDS} s: killed]\n"
            )
            os.killpg(server.pid, signal.SIGKILL)
            out, _ = server.communicate()
        log.write(out)


def _phase_commands(phase: str, env: dict, cwd: Path) -> list:
    """What a phase runs: argv lists, or callables for the serve phase."""
    if phase == "tests":
        return [_python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests"))]
    if phase == "bench":
        bench = str(ROOT / "bench" / "run.py")
        return [
            _python(bench, "--seed", "1", "--quick", "--trace", trace)
            for trace in ("0", "1")
        ]
    if phase == "examples":
        return [_python(str(path)) for path in sorted((ROOT / "examples").glob("*.py"))]
    if phase == "experiments":
        ids = subprocess.run(
            _python("-c", EXPERIMENT_IDS), env=env, cwd=cwd,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        return [_repro("experiment", id_) for id_ in ids]
    if phase == "cli":
        return [
            _repro("sizes"),
            _repro("decode", "tiny"),
            _repro("decode", "tiny", "--parallelism", "2"),
            _repro("decode", "tiny", "--no-vectorized"),
        ]
    if phase == "serve":
        return [
            lambda log: _serve([], env, cwd, log),
            lambda log: _serve(["--shards", "2"], env, cwd, log),
        ]
    if phase == "tools":
        return [
            _python(str(ROOT / "tools" / name))
            for name in ("frame_step_crossover.py", "stage_memory.py")
        ]
    raise ValueError(phase)


PHASES = ("tests", "bench", "examples", "experiments", "cli", "serve", "tools")


def run_phase(phase: str, out: Path) -> None:
    site = out / "site"
    site.mkdir(parents=True, exist_ok=True)
    calls = out / f"calls-{phase}.txt"
    calls.unlink(missing_ok=True)
    (site / "sitecustomize.py").write_text(
        HOOK.format(log=str(calls), package=str(PACKAGE) + os.sep)
    )
    env = _env(site)
    work = out / "work"
    work.mkdir(exist_ok=True)
    print(f"phase {phase}")
    with open(out / f"{phase}.log", "w") as log:
        for command in _phase_commands(phase, env, work):
            if callable(command):
                command(log)
            else:
                _run(command, env, work, log)


# -- the report -------------------------------------------------------------


def defined_functions() -> dict[tuple[str, str], tuple[int, int]]:
    """``(path under src/repro, qualified name) -> (first line, last
    line)`` for every function there, decorators included.  A property's
    getter and setter share a name, and count as one."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    name = f"{prefix}{child.name}"
                    key = (str(path.relative_to(PACKAGE)), name)
                    functions.setdefault(key, (first, child.end_lineno))
                    visit(child, f"{name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def _reached(out: Path, phases) -> set[tuple[str, str]]:
    reached = set()
    for phase in phases:
        calls = out / f"calls-{phase}.txt"
        if not calls.exists():
            continue
        for line in calls.read_text().splitlines():
            filename, _, name = line.partition(":")
            reached.add((filename, name))
    return reached


def _lines(keys, functions) -> int:
    """Source lines of ``keys``, a function nested in another listed one
    counted once (inside its parent)."""
    spans = sorted((functions[k][0], functions[k][1], k[0]) for k in keys)
    total = 0
    last = {}
    for first, end, filename in spans:
        if first <= last.get(filename, 0):
            continue
        total += end - first + 1
        last[filename] = end
    return total


def report(out: Path) -> str:
    functions = defined_functions()
    missing = [p for p in PHASES if not (out / f"calls-{p}.txt").exists()]
    entry = _reached(out, [p for p in PHASES if p != "tests"])
    tests = _reached(out, ["tests"])
    test_only = sorted(k for k in functions if k not in entry and k in tests)
    unreached = sorted(k for k in functions if k not in entry and k not in tests)
    reached = sum(1 for k in functions if k in entry)
    lines = [
        f"functions defined under src/repro: {len(functions)}",
        f"reached by an entry point: {reached}",
        f"reached only by tier-1: {len(test_only)} "
        f"({_lines(test_only, functions)} lines)",
        f"reached by nothing: {len(unreached)} "
        f"({_lines(unreached, functions)} lines)",
    ]
    if missing:
        lines.append(f"phases not run: {', '.join(missing)}")
    for title, keys in (("tier-1 only", test_only), ("unreached", unreached)):
        lines.append("")
        lines.append(f"## {title}")
        for key in sorted(keys, key=lambda k: (k[0], functions[k][0])):
            first, end = functions[key]
            lines.append(
                f"{key[0]}:{first} {key[1]} ({end - first + 1} lines)"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument(
        "--phases", nargs="*", choices=PHASES, default=list(PHASES),
        help="phases to (re-)run; none rebuilds the report only",
    )
    args = parser.parse_args(argv)
    # A shell starts a background job with SIGINT ignored, and every
    # child inherits that: the serve phase's Ctrl-C would not stop it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    for phase in args.phases:
        run_phase(phase, out)
    text = report(out)
    (out / "report.txt").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
