"""Shared fixtures: a tiny ASR task reused across the test suite.

The run fails if a child process of the suite is still alive at its
end (:func:`pytest_sessionfinish`): a pool, worker or shard that a
test, or the code under test, did not stop.
"""

import glob
import multiprocessing
from multiprocessing import resource_tracker

import pytest

from repro.am import GmmAcousticModel, ScorerKind
from repro.asr import TINY, build_scorer, build_task


@pytest.fixture(scope="session")
def tiny_task():
    return build_task(TINY)


@pytest.fixture(scope="session")
def tiny_scorer(tiny_task):
    """Oracle GMM scorer: accurate scores for decode correctness tests."""
    return GmmAcousticModel.from_emissions(
        tiny_task.emissions,
        num_mixtures=1,
        noise_scale=tiny_task.config.noise_scale,
    )


@pytest.fixture(scope="session")
def tiny_utterances():
    """A fixed batch of test utterances: the first draws of a freshly
    built task, whatever ``tiny_task.test_set`` calls ran before."""
    return build_task(TINY).test_set(6, max_words=5)


@pytest.fixture(scope="session")
def tiny_scores(tiny_scorer, tiny_utterances):
    return [tiny_scorer.score(u.features) for u in tiny_utterances]


@pytest.fixture(scope="session")
def tiny_rnn():
    """An RNN scorer of the tiny task, fit on a freshly built task's
    draws: its score blocks are 73 rows, so a longer utterance is
    scored in several."""
    return build_scorer(
        build_task(TINY), kind=ScorerKind.RNN, training_utterances=20,
        hidden=512,
    )


def live_children() -> list[int]:
    """Pids of this process's child processes that have not exited,
    leaving out multiprocessing's resource tracker (it lives as long as
    the process that started it).  Lists none where ``/proc`` has no
    ``children`` files."""
    multiprocessing.active_children()  # reaps the pools' exited workers
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    pids = []
    for listing in glob.glob("/proc/self/task/*/children"):
        with open(listing) as f:
            pids.extend(int(pid) for pid in f.read().split())
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # gone since it was listed
        if state != "Z" and pid != tracker:
            alive.append(pid)
    return alive


def pytest_sessionfinish(session, exitstatus):
    alive = live_children()
    if alive:
        session.config.get_terminal_writer().line(
            f"child processes still alive at the end of the run: {alive}",
            red=True,
        )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
