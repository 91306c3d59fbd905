"""UNFOLD's LM lookup hardware (Sections 3.1 and 3.5), replaying the search.

The search walks the LM plainly and reports each walk as one
``on_lm_walk(state, word, levels, pruned)`` event.  The hardware it
models saves DRAM fetches but never changes a weight or a next state:
a linear scan or a binary search over a state's word arcs, and the
Offset Lookup Table in front of the binary search.  The model counts
what that hardware did in its own record, :class:`LookupCounts`; the
search's results and stats never see it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.arcs import LmWordArcs

if TYPE_CHECKING:
    from repro.accel.sink import UnfoldSink


class LookupStrategy(enum.Enum):
    LINEAR = "linear"
    BINARY = "binary"
    OFFSET_TABLE = "offset_table"  # binary, behind the OLT if any


@dataclass
class LookupCounts:
    """What the lookup hardware did: one search per state searched
    (``lookups``, the search's own count again), the LM arc records it
    touched (``arc_probes``) and its OLT's hits and misses."""

    lookups: int = 0
    arc_probes: int = 0
    olt_hits: int = 0
    olt_misses: int = 0

    def __iadd__(self, other: "LookupCounts") -> "LookupCounts":
        self.lookups += other.lookups
        self.arc_probes += other.arc_probes
        self.olt_hits += other.olt_hits
        self.olt_misses += other.olt_misses
        return self

    @property
    def olt_hit_ratio(self) -> float:
        total = self.olt_hits + self.olt_misses
        return self.olt_hits / total if total else 0.0

    @property
    def avg_probes_per_lookup(self) -> float:
        return self.arc_probes / self.lookups if self.lookups else 0.0


class OffsetLookupTable:
    """Direct-mapped cache of recent LM arc-offset search results.

    Indexed by ``(state XOR word) mod entries`` with a 24-bit tag, as in
    Section 3.5.  Each entry stores the arc *ordinal* within its state
    (the paper's 23-bit arc offset).  Tag aliasing is modelled: two
    different (state, word) pairs can collide on both index and tag, in
    which case the table returns a wrong offset and the caller must
    validate the fetched arc — exactly what hardware would do.
    """

    TAG_BITS = 24

    def __init__(self, num_entries: int = 32 * 1024) -> None:
        if num_entries <= 0 or num_entries & (num_entries - 1):
            raise ValueError("num_entries must be a positive power of two")
        self.num_entries = num_entries
        self._mask = num_entries - 1
        # Live entries only, ``slot -> (tag, ordinal)``: one entry per
        # slot and insert overwrites, so the table is direct-mapped by
        # construction, while an empty table holds no per-entry storage.
        self._entries: dict[int, tuple[int, int]] = {}

    def slot(self, state: int, word: int) -> tuple[int, int]:
        """The pair's ``(index, tag)``: what :meth:`lookup` and
        :meth:`insert` take, so a miss that caches its find hashes the
        pair once."""
        index = (state ^ word) & self._mask
        tag = ((state * 0x9E3779B1) ^ (word * 0x85EBCA77)) & (
            (1 << self.TAG_BITS) - 1
        )
        return index, tag

    def lookup(self, slot: tuple[int, int]) -> int | None:
        """The arc ordinal cached under ``slot``'s tag, or None on a miss."""
        entry = self._entries.get(slot[0])
        if entry is not None and entry[0] == slot[1]:
            return entry[1]
        return None

    def insert(self, slot: tuple[int, int], ordinal: int) -> None:
        self._entries[slot[0]] = (slot[1], ordinal)


class LookupModel:
    """The lookup hardware, replaying the search's LM walks into
    ``target``'s ``access_olt``, ``fetch_lm_state`` and ``fetch_lm_arc``
    (:class:`~repro.accel.sink.UnfoldSink`'s), in the hardware's order.

    ``table_entries`` sizes the OLT of :attr:`LookupStrategy.OFFSET_TABLE`
    (0: none).  The table persists across utterances, as the hardware's
    would.  ``stats`` counts what the model did until its owner swaps in
    a fresh record (the sink does, at each utterance's end).
    """

    def __init__(
        self,
        word_arcs: LmWordArcs,
        target: "UnfoldSink",
        strategy: LookupStrategy,
        table_entries: int,
    ) -> None:
        offsets = word_arcs.offsets.tolist()
        labels = word_arcs.ilabel.tolist()
        # Per state, its word-arc labels (ilabel-ascending): the
        # ordinals the hardware fetches; the back-off arc comes after.
        self.labels: list[list[int]] = [
            labels[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])
        ]
        self.backoff_next: list[int] = word_arcs.backoff_next.tolist()
        self.target = target
        self.linear = strategy is LookupStrategy.LINEAR
        self.table: OffsetLookupTable | None = None
        if strategy is LookupStrategy.OFFSET_TABLE and table_entries:
            self.table = OffsetLookupTable(table_entries)
        self.stats = LookupCounts()

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None:
        """Replay one walk: at each of its ``levels`` a :meth:`search`
        that misses and the back-off arc's fetch; then, unless the walk
        was pruned on its last hop, the search that ended it."""
        state = lm_state
        for _ in range(levels):
            self.search(state, word_id)
            self.target.fetch_lm_arc(state, len(self.labels[state]))
            state = self.backoff_next[state]
        self.stats.arc_probes += levels
        if not pruned:
            self.search(state, word_id)

    def search(self, state: int, word: int) -> int:
        """One lookup of ``word`` at ``state``: its arc's ordinal, or -1.

        The OLT first, if any: a tag match costs one validation fetch of
        the cached ordinal's arc (an aliased entry's may lie past the
        state's arcs).  On a miss, the state record and the strategy's
        search — a linear scan up to the match, the first larger label
        or the end, or a binary search — whose find is cached.
        """
        labels = self.labels[state]
        stats = self.stats
        stats.lookups += 1
        target = self.target
        table = self.table
        if table is not None:
            slot = table.slot(state, word)
            ordinal = table.lookup(slot)
            if ordinal is not None:
                stats.arc_probes += 1
                target.fetch_lm_arc(state, ordinal)
                if ordinal < len(labels) and labels[ordinal] == word:
                    stats.olt_hits += 1
                    target.access_olt(state, word, True)
                    return ordinal
            stats.olt_misses += 1
            target.access_olt(state, word, False)
        target.fetch_lm_state(state)
        found = -1
        if self.linear:
            pos = bisect_left(labels, word)
            if pos < len(labels) and labels[pos] == word:
                found = pos
            probes = min(pos + 1, len(labels))
            for ordinal in range(probes):
                target.fetch_lm_arc(state, ordinal)
        else:
            probes = lo = 0
            hi = len(labels) - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                probes += 1
                target.fetch_lm_arc(state, mid)
                label = labels[mid]
                if label == word:
                    found = mid
                    break
                if label < word:
                    lo = mid + 1
                else:
                    hi = mid - 1
        if table is not None and found >= 0:
            table.insert(slot, found)
        stats.arc_probes += probes
        return found
