"""Fixtures shared by the serving tests."""

import os

import pytest


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
