"""Set-associative cache model.

True LRU, configurable line size/associativity/capacity, with exact
hit/miss accounting.  Graph datasets are read-only (no-write-allocate,
no dirty lines); token/lattice traffic is modelled as write-through
with write-combining at line granularity, matching how the accelerator
streams new tokens to DRAM (Section 3.1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class CacheConfig:
    """Geometry of one cache."""

    name: str
    capacity_bytes: int
    associativity: int = 4
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.line_bytes:
            raise ValueError(f"{self.name}: capacity below one line")
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"{self.name}: capacity must be a multiple of "
                "line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.line_bytes * self.associativity)


class Cache:
    """LRU set-associative cache over a byte address space."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # One OrderedDict per set: tag -> None, LRU at the front.
        self._sets: list[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    def access(self, address: int, size: int = 1) -> int:
        """Touch ``size`` bytes at ``address``; returns lines missed."""
        if size <= 0:
            raise ValueError("size must be positive")
        line = self.config.line_bytes
        first = address // line
        last = (address + size - 1) // line
        misses = 0
        for line_addr in range(first, last + 1):
            if not self._access_line(line_addr):
                misses += 1
        return misses

    def _access_line(self, line_addr: int) -> bool:
        config = self.config
        set_index = line_addr % config.num_sets
        tag = line_addr // config.num_sets
        ways = self._sets[set_index]
        self.stats.accesses += 1
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= config.associativity:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[tag] = None
        return False

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)


@dataclass
class WriteBuffer:
    """Write-combining buffer for streamed token/lattice writes.

    Sequential small writes coalesce into full lines before going to
    DRAM — the reason token traffic has good spatial but poor temporal
    locality (Section 3.5).
    """

    line_bytes: int = 64
    bytes_written: int = 0
    lines_flushed: int = 0
    _current_line: int = field(default=-1, repr=False)

    def write(self, address: int, size: int) -> int:
        """Returns the number of full lines sent to memory."""
        if size <= 0:
            raise ValueError("size must be positive")
        flushed = 0
        first = address // self.line_bytes
        last = (address + size - 1) // self.line_bytes
        for line_addr in range(first, last + 1):
            if line_addr != self._current_line:
                if self._current_line >= 0:
                    flushed += 1
                self._current_line = line_addr
        self.bytes_written += size
        self.lines_flushed += flushed
        return flushed

    def flush(self) -> int:
        if self._current_line >= 0:
            self._current_line = -1
            self.lines_flushed += 1
            return 1
        return 0
