"""Shared fixtures: a tiny ASR task reused across the test suite."""

import pytest

from repro.am import GmmAcousticModel
from repro.asr import TINY, build_task


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
