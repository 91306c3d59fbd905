"""On-the-fly LM arc lookup — the heart of UNFOLD (Sections 3.1-3.3).

When the Viterbi search crosses a word boundary in the AM graph, it must
locate the LM arc whose input label matches the word id among the
thousands of outgoing arcs of the current LM state.  The paper measures
three strategies:

* **linear** scan: ~10x slowdown over a fully-composed decoder;
* **binary** search over word-id-sorted arcs: ~3x slowdown;
* binary search + the **Offset Lookup Table** — a direct-mapped cache of
  recent ``(LM state, word id) -> arc offset`` results — plus preemptive
  back-off pruning: ~18% slowdown.

The search needs none of them to find an arc: they are accelerator
hardware, which saves DRAM fetches, not work.  So the walk runs two
ways.  Untraced (every functional decode, batched or scalar), it is
plain: one ``bisect_left`` over the state's labels per back-off level,
with the back-off penalties and the preemptive pruning check of
Section 3.3.  With a trace sink attached it is the hardware's model:
all three strategies, with exact probe accounting (every probe is an
LM arc fetch, reported to the sink) and the OLT (XOR-indexed, tagged,
Section 3.5).  Both find the same arcs, weights and back-off levels.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import repeat

from repro.core.arcs import LmWordArcs
from repro.core.trace import GraphSide, TraceSink
from repro.lm.graph import LmGraph
from repro.wfst.fst import Arc


class LookupStrategy(enum.Enum):
    LINEAR = "linear"
    BINARY = "binary"
    OFFSET_TABLE = "offset_table"


@dataclass
class LookupStats:
    """Activity counters for the LM lookup engine.

    ``lookups`` (one per state searched) and ``backoff_arcs_taken``
    count the search itself, on every walk.  ``arc_probes``,
    ``olt_hits`` and ``olt_misses`` count the lookup hardware's model,
    which only a traced walk runs: an untraced decode leaves them 0.
    """

    lookups: int = 0
    arc_probes: int = 0  # LM arc records touched while searching
    olt_hits: int = 0
    olt_misses: int = 0
    backoff_arcs_taken: int = 0
    # LM expansion cache activity (the batched resolve engine).  The
    # cache models residency only, so these are excluded from
    # equality: scalar runs, which never touch the cache, must still
    # compare equal to batched runs stat-for-stat.
    expansion_hits: int = field(default=0, compare=False)
    expansion_misses: int = field(default=0, compare=False)
    expansion_evictions: int = field(default=0, compare=False)

    @property
    def olt_hit_ratio(self) -> float:
        total = self.olt_hits + self.olt_misses
        return self.olt_hits / total if total else 0.0

    @property
    def avg_probes_per_lookup(self) -> float:
        return self.arc_probes / self.lookups if self.lookups else 0.0

    @property
    def expansion_hit_ratio(self) -> float:
        total = self.expansion_hits + self.expansion_misses
        return self.expansion_hits / total if total else 0.0

    def clone(self) -> "LookupStats":
        """An independent copy (a delta baseline)."""
        return replace(self)

    def since(self, before: "LookupStats") -> "LookupStats":
        """Every counter's growth since the ``before`` clone was taken."""
        return LookupStats(
            **{
                f.name: getattr(self, f.name) - getattr(before, f.name)
                for f in fields(self)
            }
        )


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
        # construction, while an empty table — every fork starts with
        # one — holds no per-entry storage and every read is a native
        # int.  The modelled hardware size is ``size_bytes``.
        self._entries: dict[int, tuple[int, int]] = {}

    def _slot(self, state: int, word: int) -> tuple[int, int]:
        index = (state ^ word) & self._mask
        tag = ((state * 0x9E3779B1) ^ (word * 0x85EBCA77)) & (
            (1 << self.TAG_BITS) - 1
        )
        return index, tag

    def lookup(self, state: int, word: int) -> int | None:
        """Cached arc ordinal, or None on miss."""
        index, tag = self._slot(state, word)
        entry = self._entries.get(index)
        if entry is not None and entry[0] == tag:
            return entry[1]
        return None

    def insert(self, state: int, word: int, ordinal: int) -> None:
        index, tag = self._slot(state, word)
        self._entries[index] = (tag, ordinal)

    def invalidate(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    @property
    def size_bytes(self) -> int:
        """Storage: valid bit + 24-bit tag + 23-bit offset per entry."""
        return self.num_entries * 6


@dataclass(slots=True)
class ResolveResult:
    """Outcome of matching a word at an LM state, with back-off."""

    weight: float  # total LM cost (back-off penalties + arc weight)
    next_state: int
    pruned: bool = False  # stopped early by preemptive pruning
    backoff_levels: int = 0


@dataclass(slots=True)
class BatchResolveResult:
    """:meth:`LmLookup.resolve_batch` outcome, one entry per item.

    Native lists: a frame's batch is a few dozen items (see DESIGN.md,
    "Where a vectorized frame goes"), which its consumer walks item by
    item anyway.
    """

    weight: list[float]
    next_state: list[int]
    pruned: list[bool]
    backoff_levels: list[int]


class LmExpansionCache:
    """LRU residency of LM states (the paper's LM arc cache, Section 3.3).

    UNFOLD caches recently expanded LM arcs so repeated cross-word
    transitions out of the same LM state skip the DRAM fetch; this
    models which states would be resident in such a cache.  It holds
    state ids only — the arcs themselves are the lookup's shared
    per-state views — so it can never change results, only the
    ``expansion_hits`` / ``expansion_misses`` / ``expansion_evictions``
    counters on :class:`LookupStats`.
    """

    def __init__(self, stats: LookupStats, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.stats = stats
        self.capacity = capacity
        self._resident: OrderedDict[int, None] = OrderedDict()

    def clear(self) -> None:
        self._resident.clear()

    def touch(self, states: Sequence[int]) -> None:
        """Access each state in order, admitting and evicting as needed.

        Hit/miss accounting matches a sequential walk of ``states``:
        the first occurrence of an absent state misses, every other
        access hits.
        """
        resident = self._resident
        stats = self.stats
        hits = 0
        misses = 0
        for state in states:
            if state in resident:
                hits += 1
                resident.move_to_end(state)
            else:
                misses += 1
                resident[state] = None
                if len(resident) > self.capacity:
                    resident.popitem(last=False)
                    stats.expansion_evictions += 1
        stats.expansion_hits += hits
        stats.expansion_misses += misses


class _WalkColumns:
    """An LM's word arcs as the walks read them, in native columns.

    What both walks (:meth:`LmLookup.resolve` and
    :meth:`LmLookup.resolve_batch`) read: ``labels[s]`` lists state
    ``s``'s word-arc labels (ilabel-ascending, back-off arc excluded),
    and the arc at ordinal ``k`` there has weight ``weights[base[s] +
    k]`` and destination ``nexts[base[s] + k]`` (flat over the LM, the
    CSR order); ``backoff_weight[s]`` / ``backoff_next[s]`` are its
    back-off arc (``-1``: the unigram state, which has none).  Labels
    stay per state because the searches index them most; the flat
    columns cost 16 bytes of pointers a word arc.  Built from a graph,
    every column holds the graph's own int and float objects.
    """

    __slots__ = (
        "labels", "base", "weights", "nexts", "backoff_weight", "backoff_next",
    )

    def __init__(self, graph: LmGraph | None, soa: LmWordArcs | None) -> None:
        if soa is not None:
            # A shared-memory attach: the graph cannot be walked.
            offsets = soa.offsets.tolist()
            labels = soa.ilabel.tolist()
            self.weights: list[float] = soa.weight.tolist()
            self.nexts: list[int] = soa.nextstate.tolist()
            self.backoff_weight: list[float] = soa.backoff_weight.tolist()
            self.backoff_next: list[int] = soa.backoff_next.tolist()
        else:
            assert graph is not None
            offsets = [0]
            labels = []
            self.weights = []
            self.nexts = []
            self.backoff_weight = []
            self.backoff_next = []
            for state in graph.fst.states():
                arcs = graph.fst.out_arcs(state)
                backoff = graph.backoff_arc(state)
                if backoff is None:
                    self.backoff_weight.append(0.0)
                    self.backoff_next.append(-1)
                else:
                    arcs = arcs[:-1]
                    self.backoff_weight.append(backoff.weight)
                    self.backoff_next.append(backoff.nextstate)
                for arc in arcs:
                    labels.append(arc.ilabel)
                    self.weights.append(arc.weight)
                    self.nexts.append(arc.nextstate)
                offsets.append(len(labels))
        self.base: list[int] = offsets[:-1]
        self.labels: list[list[int]] = [
            labels[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])
        ]

    def walk(
        self, state: int, word: int, entry: float, threshold: float
    ) -> tuple[float, int, bool, int]:
        """The plain back-off walk of one item: ``(weight, next_state,
        pruned, levels)``, ``next_state`` -1 when the unigram state
        lacks ``word``.

        At each level one ``bisect_left`` over the state's labels; on a
        miss the back-off arc's penalty joins the accumulator (in the
        traced walk's order) and the walk is pruned once the
        accumulated cost exceeds ``threshold`` (``inf``: never).
        """
        labels_of = self.labels
        backoff_next = self.backoff_next
        accumulated = entry
        levels = 0
        while True:
            labels = labels_of[state]
            pos = bisect_left(labels, word)
            if pos < len(labels) and labels[pos] == word:
                at = self.base[state] + pos
                return (
                    (accumulated - entry) + self.weights[at],
                    self.nexts[at],
                    False,
                    levels,
                )
            nxt = backoff_next[state]
            if nxt < 0:
                return accumulated - entry, -1, False, levels
            accumulated += self.backoff_weight[state]
            levels += 1
            state = nxt
            if accumulated > threshold:
                return accumulated - entry, state, True, levels


def _exhausted(word: int) -> LookupError:
    return LookupError(
        f"word {word} not found at the unigram state; the LM must keep "
        "all unigrams (Section 3.3 guarantee)"
    )


_TAG_MASK = (1 << OffsetLookupTable.TAG_BITS) - 1


class LmLookup:
    """Locates LM arcs for cross-word transitions.

    Untraced, by the plain walk; with a ``sink``, by the lookup
    hardware's model (``strategy``, and an ``offset_table_entries``
    OLT for :attr:`LookupStrategy.OFFSET_TABLE`), which reports every
    fetch to the sink.
    """

    def __init__(
        self,
        graph: LmGraph,
        strategy: LookupStrategy = LookupStrategy.OFFSET_TABLE,
        offset_table_entries: int = 32 * 1024,
        sink: TraceSink | None = None,
        expansion_cache_states: int = 1024,
        word_arcs: LmWordArcs | None = None,
    ) -> None:
        self.graph = graph
        self.strategy = strategy
        self.sink = sink
        # Pure-functional runs skip per-event sink calls (same guard as
        # the decoders); traced runs keep the exact event order.
        self._tracing = sink is not None
        self.stats = LookupStats()
        # The lookup hardware's model, the OLT included, lives on the
        # traced walk only; untraced lookups walk plainly.
        self.offset_table: OffsetLookupTable | None = None
        if strategy is LookupStrategy.OFFSET_TABLE and self._tracing:
            self.offset_table = OffsetLookupTable(offset_table_entries)
        # The CSR word-arc columns: the batched resolve's gate and id
        # ranges.  Prebuilt (a shared-memory attach, where walking
        # ``graph.fst`` is impossible) or built on first use.
        self._soa: LmWordArcs | None = word_arcs
        # The walks' columns, in a cell shared with forks: built from
        # the graph here, or over prebuilt CSR columns on the first
        # lookup, whichever sibling makes it.
        self._columns_cell: list[_WalkColumns | None] = [
            None if word_arcs is not None else _WalkColumns(graph, None)
        ]
        self.expansion_cache = LmExpansionCache(
            self.stats, capacity=expansion_cache_states
        )

    def _columns(self) -> _WalkColumns:
        columns = self._columns_cell[0]
        if columns is None:
            columns = _WalkColumns(None, self._soa)
            self._columns_cell[0] = columns
        return columns

    # -- one lookup at one state ------------------------------------------

    def find_arc(self, state: int, word_id: int) -> Arc | None:
        """The arc for ``word_id`` at ``state``, or None if backed off:
        one :meth:`_search` of the lookup model, counted as such."""
        columns = self._columns()
        found = self._search(state, word_id, columns.labels[state])
        if found < 0:
            return None
        at = columns.base[state] + found
        return Arc(word_id, word_id, columns.weights[at], columns.nexts[at])

    def _search(self, state: int, word: int, labels: list[int]) -> int:
        """One lookup of ``word`` among ``state``'s word-arc ``labels``:
        the matching arc's ordinal, or -1.

        The Offset Lookup Table first, when the strategy has one: a tag
        match costs one validation fetch of the cached ordinal's arc (an
        aliased entry's ordinal may even lie past the state's arcs, and
        misses).  On a miss, the state record (arc base + count) and the
        strategy's search: a linear scan that stops at the match, at the
        first larger label or at exhaustion, or a binary search; a found
        ordinal is cached.  Counts the lookup, its arc probes and its OLT
        outcome, and reports each fetch to the sink as it is made.
        """
        stats = self.stats
        stats.lookups += 1
        tracing = self._tracing
        sink = self.sink
        table = self.offset_table
        if table is not None:
            entries = table._entries
            index = (state ^ word) & table._mask
            tag = ((state * 0x9E3779B1) ^ (word * 0x85EBCA77)) & _TAG_MASK
            cached = entries.get(index)
            if cached is not None and cached[0] == tag:
                ordinal = cached[1]
                stats.arc_probes += 1
                if tracing:
                    sink.on_arc_fetch(GraphSide.LM, state, ordinal)
                if ordinal < len(labels) and labels[ordinal] == word:
                    stats.olt_hits += 1
                    if tracing:
                        sink.on_olt_access(state, word, True)
                    return ordinal
            stats.olt_misses += 1
            if tracing:
                sink.on_olt_access(state, word, False)
        if tracing:
            sink.on_state_fetch(GraphSide.LM, state)
        found = -1
        if self.strategy is LookupStrategy.LINEAR:
            pos = bisect_left(labels, word)
            if pos < len(labels):
                probes = pos + 1
                if labels[pos] == word:
                    found = pos
            else:
                probes = pos
            if tracing:
                for ordinal in range(probes):
                    sink.on_arc_fetch(GraphSide.LM, state, ordinal)
        else:
            probes = 0
            lo = 0
            hi = len(labels) - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                probes += 1
                if tracing:
                    sink.on_arc_fetch(GraphSide.LM, state, mid)
                label = labels[mid]
                if label == word:
                    found = mid
                    break
                if label < word:
                    lo = mid + 1
                else:
                    hi = mid - 1
            if table is not None and found >= 0:
                entries[index] = (tag, found)
        stats.arc_probes += probes
        return found

    # -- full back-off resolution (Section 3.3) ----------------------------

    def resolve(
        self,
        state: int,
        word_id: int,
        entry_cost: float = 0.0,
        threshold: float = math.inf,
        preemptive: bool = False,
    ) -> ResolveResult:
        """Match ``word_id`` starting at ``state``, walking back-off arcs.

        Untraced, the plain walk (:meth:`_WalkColumns.walk`, shared with
        :meth:`resolve_batch`); with a sink, the lookup hardware's model
        (:meth:`_resolve_traced`).  Both give bit-identical results and
        the same ``lookups`` and ``backoff_arcs_taken``.

        Args:
            state: LM state to start from.
            word_id: Cross-word transition's word id.
            entry_cost: Hypothesis cost before LM rescoring (used by the
                preemptive pruning check).
            threshold: Current frame pruning threshold.
            preemptive: Enable Section 3.3's early abort: once the
                accumulated cost (monotonically increasing) exceeds the
                threshold, the hypothesis is discarded without finishing
                the walk.
        """
        if self._tracing:
            return self._resolve_traced(
                state, word_id, entry_cost, threshold, preemptive
            )
        weight, nxt, pruned, levels = self._columns().walk(
            state, word_id, entry_cost, threshold if preemptive else math.inf
        )
        stats = self.stats
        stats.lookups += levels + (not pruned)
        stats.backoff_arcs_taken += levels
        if nxt < 0:
            raise _exhausted(word_id)
        return ResolveResult(weight, nxt, pruned, levels)

    def _resolve_traced(
        self,
        state: int,
        word_id: int,
        entry_cost: float,
        threshold: float,
        preemptive: bool,
    ) -> ResolveResult:
        """:meth:`resolve` as the lookup hardware walks it.

        One loop over back-off levels: at each, one :meth:`_search`;
        on a miss the state's back-off arc (one more fetch) and its
        penalty.  Its back-off counters stay in locals until the walk
        ends.
        """
        columns = self._columns()
        labels_of = columns.labels
        backoff_next = columns.backoff_next
        search = self._search
        accumulated = entry_cost
        levels = 0
        current = state
        while True:
            labels = labels_of[current]
            found = search(current, word_id, labels)
            if found >= 0:
                break
            nxt = backoff_next[current]
            if nxt < 0:
                break
            # The back-off arc's fetch: it is stored after the word arcs.
            self.sink.on_arc_fetch(GraphSide.LM, current, len(labels))
            accumulated += columns.backoff_weight[current]
            levels += 1
            if preemptive and accumulated > threshold:
                break
            current = nxt
        if levels:
            stats = self.stats
            stats.arc_probes += levels
            stats.backoff_arcs_taken += levels
        if found >= 0:
            at = columns.base[current] + found
            return ResolveResult(
                (accumulated - entry_cost) + columns.weights[at],
                columns.nexts[at],
                False,
                levels,
            )
        if nxt < 0:
            raise _exhausted(word_id)
        return ResolveResult(accumulated - entry_cost, nxt, True, levels)

    # -- batched resolution (the batched epsilon phase's engine) ------------

    def _ensure_batch_structures(self) -> LmWordArcs:
        if self._soa is None:
            self._soa = LmWordArcs.from_graph(self.graph)
        return self._soa

    @property
    def batch_supported(self) -> bool:
        """Whether :meth:`resolve_batch` preserves scalar semantics here.

        Requires non-negative LM costs (so a frame's pruning threshold
        cannot move mid-phase) and no trace sink (batched work has no
        per-event order to report).
        """
        return self._ensure_batch_structures().nonneg_weights and not self._tracing

    def reset_transient_state(self) -> None:
        """Cold-start the per-decode caches (a traced lookup's OLT and
        the expansion residency).

        Neither affects results — only which work is re-spent — but
        clearing both keeps every activity counter independent of how
        utterances were batched (the pool's determinism contract).
        """
        if self.offset_table is not None:
            self.offset_table.invalidate()
        self.expansion_cache.clear()

    def fork(self) -> "LmLookup":
        """A cold clone sharing the immutable graph structures.

        The clone shares everything derived from the graph — the walks'
        per-state columns and the CSR word-arc columns —
        but owns fresh *transient* state: zeroed :class:`LookupStats`
        and an empty LM expansion cache.  A fork therefore behaves
        exactly like the parent lookup immediately after
        ``reset_transient_state()``, which is what gives each serve
        session the same counters as a solo cold decode.  Forks never
        trace, so they walk plainly and hold no Offset Lookup Table.
        """
        clone = object.__new__(LmLookup)
        clone.graph = self.graph
        clone.strategy = self.strategy
        clone.sink = None
        clone._tracing = False
        clone.stats = LookupStats()
        clone.offset_table = None
        clone._columns_cell = self._columns_cell
        clone._soa = self._ensure_batch_structures()
        clone.expansion_cache = LmExpansionCache(
            clone.stats, capacity=self.expansion_cache.capacity
        )
        return clone

    def resolve_batch(
        self,
        states: Sequence[int],
        words: Sequence[int],
        entry_costs: Sequence[float],
        threshold: float = math.inf,
        preemptive: bool = False,
    ) -> BatchResolveResult:
        """:meth:`resolve` over a batch of (state, word) items.

        The untraced ``resolve``'s plain walk, item by item in list
        order, so the results and counters are the scalar calls'.
        Native lists in, native lists out: nothing here is array-shaped.
        A word id outside the label space or an LM state outside
        ``[0, num_states)`` raises ``ValueError`` before any item has
        touched the lookup's state — counters and expansion residency;
        stats land on completion: every item is accounted before an
        exhausted item raises.
        """
        if self._tracing:
            raise RuntimeError(
                "resolve_batch has no per-event order; use resolve when tracing"
            )
        soa = self._ensure_batch_structures()
        columns = self._columns()
        n = len(words)
        if n and not 0 <= min(words) <= max(words) < soa.label_space:
            raise ValueError("word id outside the LM label space")
        if n and not 0 <= min(states) <= max(states) < len(columns.labels):
            raise ValueError("LM state id outside [0, num_states)")
        self.expansion_cache.touch(states)
        if not preemptive:
            threshold = math.inf
        out_weight: list[float] = []
        out_next: list[int] = []
        out_pruned: list[bool] = []
        out_levels: list[int] = []
        for weight, nxt, pruned, levels in map(
            columns.walk, states, words, entry_costs, repeat(threshold, n)
        ):
            out_weight.append(weight)
            out_next.append(nxt)
            out_pruned.append(pruned)
            out_levels.append(levels)
        # A walk that ended at ``level`` took ``level`` back-off arcs and
        # made ``level + 1`` lookups, except that one pruned on arriving
        # at ``level`` never searched there.
        backoffs = sum(out_levels)
        stats = self.stats
        stats.lookups += backoffs + n - out_pruned.count(True)
        stats.backoff_arcs_taken += backoffs
        if -1 in out_next:
            raise _exhausted(words[out_next.index(-1)])
        return BatchResolveResult(out_weight, out_next, out_pruned, out_levels)
