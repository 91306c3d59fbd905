"""Per-process memory introspection via ``/proc`` (no psutil).

Two numbers matter for the shared-memory story:

* **RSS** (``VmRSS`` in ``/proc/<pid>/status``) — all resident pages,
  *including* shared segment pages.  N workers mapping one segment each
  report the segment in their RSS, so summed RSS over-counts.
* **USS** (``Private_Clean + Private_Dirty`` in
  ``/proc/<pid>/smaps_rollup``) — pages private to the process.  A
  worker whose recognizer lives in an attached shared segment has a
  USS that excludes the segment entirely: per-worker incremental
  memory must stay a small fraction of the recognizer's size.

Both readers degrade to ``None`` off Linux or on restricted /proc.
"""

from __future__ import annotations

import os


def _read_kb_field(path: str, field: str) -> int | None:
    """Sum every ``field`` line of ``path`` (values are in kB)."""
    try:
        with open(path, "r") as handle:
            total = None
            for line in handle:
                if line.startswith(field):
                    parts = line.split()
                    if len(parts) >= 2:
                        total = (total or 0) + int(parts[1])
            return None if total is None else total * 1024
    except OSError:
        return None


def rss_bytes(pid: int | str = "self") -> int | None:
    """Resident set size in bytes, or ``None`` when unreadable."""
    return _read_kb_field(f"/proc/{pid}/status", "VmRSS:")


def uss_bytes(pid: int | str = "self") -> int | None:
    """Unique (private) set size in bytes, or ``None`` when unreadable."""
    rollup = f"/proc/{pid}/smaps_rollup"
    clean = _read_kb_field(rollup, "Private_Clean:")
    dirty = _read_kb_field(rollup, "Private_Dirty:")
    if clean is None and dirty is None:
        return None
    return (clean or 0) + (dirty or 0)


def segment_memory(name: str, pid: int | str = "self") -> dict | None:
    """Residency breakdown of one shared segment's mapping in ``pid``.

    Walks ``/proc/<pid>/smaps`` for the mapping(s) backed by
    ``/dev/shm/<name>`` and sums their ``Rss`` / ``Shared_*`` /
    ``Private_*`` pages.  ``private_bytes`` is the honest "incremental
    RSS" of the recognizer in this worker: pages of the segment this
    process privatized.  Read-only numpy views never write, so it
    should stay ~0 no matter how large the segment — the shard and
    worker-engine tests assert it stays under 10 %.  ``None`` when the
    mapping is absent or /proc is unreadable.
    """
    suffix = "/" + name.lstrip("/")
    try:
        with open(f"/proc/{pid}/smaps", "r") as handle:
            totals = {"Rss:": 0, "Shared_Clean:": 0, "Shared_Dirty:": 0,
                      "Private_Clean:": 0, "Private_Dirty:": 0}
            found = False
            in_segment = False
            for line in handle:
                if "-" in line.split(" ", 1)[0]:  # mapping header
                    in_segment = line.rstrip().endswith(suffix)
                    found = found or in_segment
                elif in_segment:
                    parts = line.split()
                    if parts and parts[0] in totals and len(parts) >= 2:
                        totals[parts[0]] += int(parts[1])
    except OSError:
        return None
    if not found:
        return None
    kb = 1024
    return {
        "rss_bytes": totals["Rss:"] * kb,
        "shared_bytes": (
            totals["Shared_Clean:"] + totals["Shared_Dirty:"]
        ) * kb,
        "private_bytes": (
            totals["Private_Clean:"] + totals["Private_Dirty:"]
        ) * kb,
    }


def process_memory(
    pid: int | None = None, segment: str | None = None
) -> dict:
    """RSS/USS snapshot for ``pid`` (default: the calling process).

    With ``segment``, includes that shared segment's mapping breakdown
    under ``"segment"`` (see :func:`segment_memory`).
    """
    target = "self" if pid is None else str(pid)
    info = {
        "pid": os.getpid() if pid is None else pid,
        "rss_bytes": rss_bytes(target),
        "uss_bytes": uss_bytes(target),
    }
    if segment is not None:
        info["segment"] = segment_memory(segment, target)
    return info
