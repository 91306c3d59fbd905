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

This module implements all three, with exact probe accounting (every
probe is an LM arc fetch, reported to the trace sink), the OLT model
(XOR-indexed, tagged, Section 3.5), and the back-off walk with the
preemptive pruning check of Section 3.3.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

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
    """Activity counters for the LM lookup engine."""

    lookups: int = 0
    arc_probes: int = 0  # LM arc records touched while searching
    olt_hits: int = 0
    olt_misses: int = 0
    backoff_arcs_taken: int = 0
    preemptive_prunes: int = 0
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


@dataclass
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


class LmLookup:
    """Locates LM arcs for cross-word transitions."""

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
        self.offset_table: OffsetLookupTable | None = None
        if strategy is LookupStrategy.OFFSET_TABLE:
            self.offset_table = OffsetLookupTable(offset_table_entries)
        # Per-state scalar views (word arcs with the back-off arc split
        # off).  The cell is shared with forks, so whichever lookup
        # builds the views first shares them with every sibling.  With
        # prebuilt ``word_arcs`` (a shared-memory attach, where walking
        # ``graph.fst`` is impossible) the views reconstruct lazily from
        # the CSR columns; otherwise they are built from the graph here,
        # as always.
        self._scalar_cell: list[tuple[list[list[Arc]], list[Arc | None]] | None]
        if word_arcs is not None:
            self._scalar_cell = [None]
            self._soa: LmWordArcs | None = word_arcs
        else:
            arc_views: list[list[Arc]] = []
            backoffs: list[Arc | None] = []
            for state in graph.fst.states():
                arcs = graph.fst.out_arcs(state)
                backoff = graph.backoff_arc(state)
                backoffs.append(backoff)
                arc_views.append(
                    arcs[:-1] if backoff is not None else list(arcs)
                )
            self._scalar_cell = [(arc_views, backoffs)]
            # The CSR word-arc columns, built on first use: the batched
            # resolve's gate and id ranges, and the views of an attach.
            self._soa = None
        # Each state's word-arc labels as native ints, which the batched
        # resolve searches: built on its first call, shared with forks.
        self._labels_cell: list[list[list[int]] | None] = [None]
        self.expansion_cache = LmExpansionCache(
            self.stats, capacity=expansion_cache_states
        )

    def _scalar_views(self) -> tuple[list[list[Arc]], list[Arc | None]]:
        views = self._scalar_cell[0]
        if views is None:
            views = self._ensure_batch_structures().to_arc_lists()
            self._scalar_cell[0] = views
        return views

    def _labels(self) -> list[list[int]]:
        labels = self._labels_cell[0]
        if labels is None:
            labels = [[arc.ilabel for arc in arcs] for arcs in self._word_arcs]
            self._labels_cell[0] = labels
        return labels

    @property
    def _word_arcs(self) -> list[list[Arc]]:
        """Per-state word-arc views (back-off arc excluded; it is last)."""
        return self._scalar_views()[0]

    @property
    def _backoff(self) -> list[Arc | None]:
        return self._scalar_views()[1]

    # -- single-state search ----------------------------------------------

    def find_arc(self, state: int, word_id: int) -> Arc | None:
        """The arc for ``word_id`` at ``state``, or None if backed off."""
        self.stats.lookups += 1
        if self.strategy is LookupStrategy.LINEAR:
            if self._tracing:
                self.sink.on_state_fetch(GraphSide.LM, state)
            return self._linear(state, word_id)
        if self.strategy is LookupStrategy.BINARY:
            if self._tracing:
                self.sink.on_state_fetch(GraphSide.LM, state)
            found = self._binary(state, word_id)
            return found[0] if found else None
        return self._with_offset_table(state, word_id)

    def _probe(self, state: int, ordinal: int) -> Arc:
        self.stats.arc_probes += 1
        if self._tracing:
            self.sink.on_arc_fetch(GraphSide.LM, state, ordinal)
        return self._word_arcs[state][ordinal]

    def _linear(self, state: int, word_id: int) -> Arc | None:
        for ordinal in range(len(self._word_arcs[state])):
            arc = self._probe(state, ordinal)
            if arc.ilabel == word_id:
                return arc
            if arc.ilabel > word_id:  # sorted: passed the slot
                return None
        return None

    def _binary(self, state: int, word_id: int) -> tuple[Arc, int] | None:
        arcs = self._word_arcs[state]
        lo, hi = 0, len(arcs) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            arc = self._probe(state, mid)
            if arc.ilabel == word_id:
                return arc, mid
            if arc.ilabel < word_id:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    def _with_offset_table(self, state: int, word_id: int) -> Arc | None:
        table = self.offset_table
        assert table is not None
        cached = table.lookup(state, word_id)
        if cached is not None:
            # Tag aliasing check on the fetched arc.  An aliased entry
            # holds another pair's ordinal, which may even lie past this
            # state's arcs: the fetch is paid either way, and it misses.
            self.stats.arc_probes += 1
            if self._tracing:
                self.sink.on_arc_fetch(GraphSide.LM, state, cached)
            arcs = self._word_arcs[state]
            if cached < len(arcs) and arcs[cached].ilabel == word_id:
                self.stats.olt_hits += 1
                if self._tracing:
                    self.sink.on_olt_access(state, word_id, True)
                return arcs[cached]
        self.stats.olt_misses += 1
        if self._tracing:
            self.sink.on_olt_access(state, word_id, False)
            # Only a miss needs the state record (arc base + count) for
            # the binary search; an OLT hit goes straight to the arc.
            self.sink.on_state_fetch(GraphSide.LM, state)
        found = self._binary(state, word_id)
        if found is None:
            return None
        arc, ordinal = found
        table.insert(state, word_id, ordinal)
        return arc

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
        accumulated = entry_cost
        levels = 0
        current = state
        while True:
            arc = self.find_arc(current, word_id)
            if arc is not None:
                return ResolveResult(
                    weight=(accumulated - entry_cost) + arc.weight,
                    next_state=arc.nextstate,
                    backoff_levels=levels,
                )
            backoff = self._backoff[current]
            if backoff is None:
                raise LookupError(
                    f"word {word_id} not found at the unigram state; the LM "
                    "must keep all unigrams (Section 3.3 guarantee)"
                )
            self.stats.arc_probes += 1
            if self._tracing:
                self.sink.on_arc_fetch(
                    GraphSide.LM, current, len(self._word_arcs[current])
                )
            self.stats.backoff_arcs_taken += 1
            accumulated += backoff.weight
            levels += 1
            if preemptive and accumulated > threshold:
                self.stats.preemptive_prunes += 1
                return ResolveResult(
                    weight=accumulated - entry_cost,
                    next_state=backoff.nextstate,
                    pruned=True,
                    backoff_levels=levels,
                )
            current = backoff.nextstate

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
        """Cold-start the per-decode caches (OLT + expansion residency).

        Neither affects results — only which work is re-spent — but
        clearing both keeps every activity counter independent of how
        utterances were batched (the pool's determinism contract).
        """
        if self.offset_table is not None:
            self.offset_table.invalidate()
        self.expansion_cache.clear()

    def fork(self) -> "LmLookup":
        """A cold clone sharing the immutable graph structures.

        The clone shares everything derived from the graph — per-state
        arc views and labels, back-off arcs, the CSR word-arc columns —
        but owns fresh *transient* state: zeroed :class:`LookupStats`,
        an empty Offset Lookup Table of the same geometry, and an empty
        LM expansion cache.  A fork therefore behaves exactly like the
        parent lookup immediately after ``reset_transient_state()``,
        which is what gives each serve session the same cache
        evolution — hence identical counters — as a solo cold decode.
        Forks never trace: batched work has no per-event order to
        report, and the batched kernels are gated off under a real sink
        anyway.
        """
        clone = object.__new__(LmLookup)
        clone.graph = self.graph
        clone.strategy = self.strategy
        clone.sink = None
        clone._tracing = False
        clone.stats = LookupStats()
        clone.offset_table = None
        if self.strategy is LookupStrategy.OFFSET_TABLE:
            entries = (
                self.offset_table.num_entries
                if self.offset_table is not None
                else 32 * 1024
            )
            clone.offset_table = OffsetLookupTable(entries)
        clone._scalar_cell = self._scalar_cell
        clone._labels_cell = self._labels_cell
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

        Literally the scalar ``resolve`` walk, item by item in list
        order, with the per-probe bookkeeping kept in locals: at each
        back-off level the Offset Lookup Table (when the strategy has
        one), then the strategy's search over the state's native label
        list.  Equality with the scalar engine holds by construction:
        bit-identical weights (the back-off accumulator adds in the
        scalar order) and identical ``LookupStats`` counters, including
        the OLT's hit/miss/probe accounting and its final contents.
        The items must not be interleaved with scalar resolves that the
        batch order would not reproduce.  Native lists in, native lists
        out: nothing here is array-shaped.  A word id outside the label
        space or an LM state outside ``[0, num_states)`` raises
        ``ValueError`` before any item has touched the lookup's state —
        counters, OLT and expansion residency; stats land on
        completion: every item is accounted before an exhausted item
        raises.
        """
        if self._tracing:
            raise RuntimeError(
                "resolve_batch has no per-event order; use resolve when tracing"
            )
        soa = self._ensure_batch_structures()
        labels_of = self._labels()
        word_arcs, backoff_of = self._scalar_views()
        n = len(words)
        if n and not 0 <= min(words) <= max(words) < soa.label_space:
            raise ValueError("word id outside the LM label space")
        if n and not 0 <= min(states) <= max(states) < len(labels_of):
            raise ValueError("LM state id outside [0, num_states)")
        self.expansion_cache.touch(states)
        out_weight = [0.0] * n
        out_next = [-1] * n
        out_pruned = [False] * n
        out_levels = [0] * n
        out_steps = [0] * n
        exhausted_word = -1
        table = self.offset_table
        use_olt = self.strategy is LookupStrategy.OFFSET_TABLE
        linear = self.strategy is LookupStrategy.LINEAR
        if use_olt:
            assert table is not None
            slot_mask = table._mask
            tag_mask = (1 << OffsetLookupTable.TAG_BITS) - 1
            entries = table._entries
        if not preemptive:
            threshold = math.inf
        # Counters land once per batch, not per probe: an item's probes
        # add up in a small local, and its lookups and back-off arcs
        # follow from the level its walk ended at (below).
        prunes = hits = 0
        for i in range(n):
            word = words[i]
            entry = entry_costs[i]
            accumulated = entry
            state = states[i]
            level = 0
            steps = 0
            if use_olt:
                word_hash = word * 0x85EBCA77
            while True:
                labels = labels_of[state]
                found = -1
                if use_olt:
                    index = (state ^ word) & slot_mask
                    tag = ((state * 0x9E3779B1) ^ word_hash) & tag_mask
                    cached = entries.get(index)
                    if cached is not None and cached[0] == tag:
                        # One validation probe on the fetched arc; an
                        # aliased ordinal may lie past the state's arcs.
                        steps += 1
                        ordinal = cached[1]
                        if ordinal < len(labels) and labels[ordinal] == word:
                            hits += 1
                            found = ordinal
                if found < 0:
                    if linear:
                        # The scan stops at the match, at the first
                        # larger label, or at exhaustion — probing each
                        # arc it passes.
                        pos = bisect_left(labels, word)
                        if pos < len(labels):
                            steps += pos + 1
                            if labels[pos] == word:
                                found = pos
                        else:
                            steps += pos
                    else:
                        lo = 0
                        hi = len(labels) - 1
                        while lo <= hi:
                            mid = (lo + hi) // 2
                            steps += 1
                            label = labels[mid]
                            if label == word:
                                found = mid
                                break
                            if label < word:
                                lo = mid + 1
                            else:
                                hi = mid - 1
                        if use_olt and found >= 0:
                            entries[index] = (tag, found)
                if found >= 0:
                    arc = word_arcs[state][found]
                    out_weight[i] = (accumulated - entry) + arc.weight
                    out_next[i] = arc.nextstate
                    break
                backoff = backoff_of[state]
                if backoff is None:
                    if exhausted_word < 0:
                        exhausted_word = word
                    break
                # The back-off arc's fetch is one more probe.
                steps += 1
                level += 1
                accumulated += backoff.weight
                state = backoff.nextstate
                if accumulated > threshold:
                    prunes += 1
                    out_weight[i] = accumulated - entry
                    out_next[i] = state
                    out_pruned[i] = True
                    break
            out_levels[i] = level
            out_steps[i] = steps
        # A walk that ended at ``level`` took ``level`` back-off arcs and
        # made ``level + 1`` lookups, except that one pruned on arriving
        # at ``level`` never searched there.  Every OLT lookup that is
        # not a hit is a miss.
        backoffs = sum(out_levels)
        lookups = backoffs + n - prunes
        stats = self.stats
        stats.lookups += lookups
        stats.arc_probes += sum(out_steps)
        stats.backoff_arcs_taken += backoffs
        stats.preemptive_prunes += prunes
        stats.olt_hits += hits
        if use_olt:
            stats.olt_misses += lookups - hits
        if exhausted_word >= 0:
            raise LookupError(
                f"word {exhausted_word} not found at the unigram state; "
                "the LM must keep all unigrams (Section 3.3 guarantee)"
            )
        return BatchResolveResult(out_weight, out_next, out_pruned, out_levels)
