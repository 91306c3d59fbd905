"""How many CPUs this process may run on.

A leaf module, so that every layer that sizes a pool — the acoustic
models' training, the utterance-parallel decoder — can ask without
importing the layers above it.
"""

from __future__ import annotations

import os


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1
