"""Fixtures shared by the serving tests."""

import os

import pytest

from repro.serve import protocol


def wire(matrix):
    """``matrix`` as a server receives it: its ``b64f32`` round trip.
    A reference decode of this is what a served session must equal."""
    return protocol.payload_to_matrix(protocol.matrix_to_payload(matrix))


@pytest.fixture(scope="session")
def wire_scores(tiny_scores):
    """The score matrices a ``scores`` session decodes."""
    return [wire(scores) for scores in tiny_scores]


@pytest.fixture(scope="session")
def wire_feature_scores(tiny_scorer, tiny_utterances):
    """The score matrices a ``features`` session decodes: the scorer's
    scores of the features the server receives."""
    return [tiny_scorer.score(wire(u.features)) for u in tiny_utterances]


def repro_segments() -> set[str]:
    """The ``repro-*`` shared-memory segments that exist right now."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-")
        }
    except FileNotFoundError:
        return set()


@pytest.fixture
def no_leaked_segments():
    before = repro_segments()
    yield
    leaked = repro_segments() - before
    assert not leaked, f"test leaked /dev/shm segments: {sorted(leaked)}"
