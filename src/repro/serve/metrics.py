"""Dependency-free service metrics (counters, gauges, histograms).

The serving layer needs live observability — sessions admitted and
rejected, frames decoded, queue depths, per-batch decode latency —
without pulling a metrics client into a reproduction repo.  This
module is that registry: three instrument kinds and a JSON-ready
:meth:`MetricsRegistry.snapshot` that the wire protocol's ``status``
request serializes verbatim.

There is no lock: a server records and snapshots its metrics on its
event loop's thread only (the shard control pipe reads in an executor
thread, but its handlers run on the loop).

Histograms keep raw samples up to a bounded window (newest samples
win) and summarize on demand: count/mean/min/max plus interpolated
p50/p95/p99 — the latency shape a serving dashboard actually watches.
"""

from __future__ import annotations

import math
from collections import deque

#: Samples retained per histogram.  Enough for stable percentiles over
#: a bench run; old samples roll off so a long-lived server's snapshot
#: reflects recent behaviour, not its whole uptime.
DEFAULT_WINDOW = 65536

#: The percentiles every histogram summary reports.
PERCENTILES = (50.0, 95.0, 99.0)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that goes up and down (active sessions, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


def percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolation percentile over pre-sorted samples."""
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class Histogram:
    """Windowed sample distribution with percentile summaries."""

    __slots__ = ("_samples", "count", "total")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0  # lifetime observations, beyond the window
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self._samples.append(value)
        self.count += 1
        self.total += value

    def summary(self) -> dict:
        """JSON-ready summary; NaNs become None for empty histograms."""
        ordered = sorted(self._samples)
        count = self.count
        total = self.total
        if not ordered:
            return {
                "count": 0,
                "mean": None,
                "min": None,
                "max": None,
                **{f"p{int(p)}": None for p in PERCENTILES},
            }
        return {
            "count": count,
            "mean": total / count,
            "min": ordered[0],
            "max": ordered[-1],
            **{
                f"p{int(p)}": percentile(ordered, p) for p in PERCENTILES
            },
        }


class MetricsRegistry:
    """Named instruments plus a point-in-time snapshot.

    Instruments are created on first use (``registry.counter("x")``),
    so recording sites never need set-up code, and a snapshot of a
    fresh registry is simply empty.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._window = window
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                window=self._window
            )
        return instrument

    def snapshot(self) -> dict:
        """The registry as a JSON-serializable dict.

        Schema (documented in README "Serving")::

            {"counters":   {name: int},
             "gauges":     {name: float},
             "histograms": {name: {count, mean, min, max, p50, p95, p99}}}
        """
        return {
            "counters": {
                k: c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }
