"""UNFOLD's LM lookup hardware (Sections 3.1 and 3.5), replaying the search.

The search walks the LM plainly and reports each walk as one
``on_lm_walk(state, word, levels, pruned)`` event.  The hardware it
models saves DRAM fetches but never changes a weight or a next state:
a linear scan or a binary search over a state's word arcs, and the
Offset Lookup Table in front of the binary search.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.core.arcs import LmWordArcs
from repro.core.composition import LookupStats
from repro.core.trace import GraphSide

if TYPE_CHECKING:
    from repro.accel.sink import UnfoldSink


class LookupStrategy(enum.Enum):
    LINEAR = "linear"
    BINARY = "binary"
    OFFSET_TABLE = "offset_table"  # binary, behind the OLT if any


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
    ``target``'s ``on_olt_access``, ``on_state_fetch`` and
    ``on_arc_fetch``, in the hardware's order.

    ``table_entries`` sizes the OLT of :attr:`LookupStrategy.OFFSET_TABLE`
    (0: none).  The table persists across utterances, as the hardware's
    would.  ``stats`` holds ``arc_probes``, ``olt_hits`` and
    ``olt_misses`` since the last :meth:`settle`.
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
        self.stats = LookupStats()

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None:
        """Replay one walk: at each of its ``levels`` a :meth:`search`
        that misses and the back-off arc's fetch; then, unless the walk
        was pruned on its last hop, the search that ended it."""
        state = lm_state
        for _ in range(levels):
            self.search(state, word_id)
            self.target.on_arc_fetch(GraphSide.LM, state, len(self.labels[state]))
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
        target = self.target
        table = self.table
        if table is not None:
            slot = table.slot(state, word)
            ordinal = table.lookup(slot)
            if ordinal is not None:
                stats.arc_probes += 1
                target.on_arc_fetch(GraphSide.LM, state, ordinal)
                if ordinal < len(labels) and labels[ordinal] == word:
                    stats.olt_hits += 1
                    target.on_olt_access(state, word, True)
                    return ordinal
            stats.olt_misses += 1
            target.on_olt_access(state, word, False)
        target.on_state_fetch(GraphSide.LM, state)
        found = -1
        if self.linear:
            pos = bisect_left(labels, word)
            if pos < len(labels) and labels[pos] == word:
                found = pos
            probes = min(pos + 1, len(labels))
            for ordinal in range(probes):
                target.on_arc_fetch(GraphSide.LM, state, ordinal)
        else:
            probes = lo = 0
            hi = len(labels) - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                probes += 1
                target.on_arc_fetch(GraphSide.LM, state, mid)
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

    def settle(self, lookup: LookupStats) -> None:
        """Move the counts since the last settle into an utterance's
        ``lookup``."""
        stats = self.stats
        lookup.arc_probes = stats.arc_probes
        lookup.olt_hits = stats.olt_hits
        lookup.olt_misses = stats.olt_misses
        self.stats = LookupStats()
