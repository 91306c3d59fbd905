"""On-the-fly LM arc lookup — the heart of UNFOLD (Sections 3.1-3.3).

When the Viterbi search crosses a word boundary in the AM graph, it must
locate the LM arc whose input label matches the word id among the
thousands of outgoing arcs of the current LM state, walking back-off
arcs when the state lacks the word.  The walk here is plain: one
``bisect_left`` over the state's labels per back-off level, with the
back-off penalties and the preemptive pruning check of Section 3.3.

The paper's lookup hardware — linear or binary probing, and the Offset
Lookup Table in front of the binary search (Sections 3.1 and 3.5) —
saves DRAM fetches, not work: it never changes a weight or a next
state.  So it is the simulator's (:mod:`repro.accel.lookup`).  A traced
lookup reports each walk to its sink as one ``on_lm_walk`` event, from
which the model derives the OLT accesses and the LM fetches.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import repeat

from repro.core.arcs import LmWordArcs
from repro.core.trace import TraceSink
from repro.lm.graph import LmGraph


@dataclass
class LookupStats:
    """Activity counters for the LM lookup engine, one decode's.

    ``lookups`` (one per state searched) and ``backoff_arcs_taken``
    count the search itself: the epsilon phases add up their walks'
    and write them to the segment's ``DecoderStats``.  ``arc_probes``,
    ``olt_hits`` and ``olt_misses`` count the lookup hardware: no code
    here writes them, and the UNFOLD simulator fills them in each
    utterance it simulates, from its lookup model
    (:meth:`repro.accel.lookup.LookupModel.settle`).  Everywhere else
    they read 0.
    """

    lookups: int = 0
    arc_probes: int = 0  # LM arc records touched while searching
    olt_hits: int = 0
    olt_misses: int = 0
    backoff_arcs_taken: int = 0
    # Always 0: the search keeps no LM expansion cache.  The fields stay
    # for ``bench/common.py``'s ``CoreProbe.decode``, which reads them
    # by ``getattr``; a benchmark-only change drops them.
    expansion_hits: int = 0
    expansion_misses: int = 0
    expansion_evictions: int = 0

    @property
    def olt_hit_ratio(self) -> float:
        total = self.olt_hits + self.olt_misses
        return self.olt_hits / total if total else 0.0

    @property
    def avg_probes_per_lookup(self) -> float:
        return self.arc_probes / self.lookups if self.lookups else 0.0


@dataclass(slots=True)
class ResolveResult:
    """Outcome of matching a word at an LM state, with back-off."""

    weight: float  # total LM cost (back-off penalties + arc weight)
    next_state: int
    pruned: bool = False  # stopped early by preemptive pruning
    backoff_levels: int = 0


@dataclass(slots=True)
class BatchResolveResult:
    """:meth:`LmLookup.resolve_batch` outcome, one entry per item, in
    native lists.  No decoder reads it (see ``resolve_batch``)."""

    weight: list[float]
    next_state: list[int]
    pruned: list[bool]
    backoff_levels: list[int]


class _WalkColumns:
    """An LM's word arcs as the walk reads them, in native columns.

    What the walk (:meth:`walk`, behind :meth:`LmLookup.resolve`,
    :meth:`LmLookup.resolve_batch` and the batched epsilon phase's
    :attr:`LmLookup.plain_walk`) reads: ``labels[s]`` lists state
    ``s``'s word-arc labels (ilabel-ascending, back-off arc excluded),
    and the arc at ordinal ``k`` there has weight ``weights[base[s] +
    k]`` and destination ``nexts[base[s] + k]`` (flat over the LM, the
    CSR order); ``backoff_weight[s]`` / ``backoff_next[s]`` are its
    back-off arc (``-1``: the unigram state, which has none).  Labels
    stay per state because the walk indexes them most; the flat
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
        miss the back-off arc's penalty joins the accumulator and the
        walk is pruned once the accumulated cost exceeds ``threshold``
        (``inf``: never).
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


def exhausted_word_error(word: int) -> LookupError:
    """What a walk raises when the unigram state lacks ``word``."""
    return LookupError(
        f"word {word} not found at the unigram state; the LM must keep "
        "all unigrams (Section 3.3 guarantee)"
    )


class LmLookup:
    """Locates LM arcs for cross-word transitions, by the plain walk.

    The walk over the LM's read-only columns and nothing else: a lookup
    counts nothing and changes nothing as it walks, so one instance per
    decoder serves every decode and session on it.  The caller keeps
    the books (the epsilon phases, in the segment's
    ``DecoderStats.lookup``): ``lookups += levels + (not pruned)`` and
    ``backoff_arcs_taken += levels`` per walk.  With a ``sink``, each
    :meth:`resolve` also reports its walk to the sink
    (``on_lm_walk``), for the accelerator's lookup model.
    """

    def __init__(
        self,
        graph: LmGraph,
        sink: TraceSink | None = None,
        word_arcs: LmWordArcs | None = None,
    ) -> None:
        self.graph = graph
        self.sink = sink
        # Pure-functional runs skip per-event sink calls (same guard as
        # the decoders); traced runs keep the exact event order.
        self._tracing = sink is not None
        # The CSR word-arc columns: the batched epsilon phase's gate and
        # ``resolve_batch``'s id ranges.  Prebuilt (a shared-memory
        # attach, where walking ``graph.fst`` is impossible) or built on
        # first use.
        self._soa: LmWordArcs | None = word_arcs
        # The walk's columns: built from the graph here, or over
        # prebuilt CSR columns on the first lookup.
        self._walk_columns: _WalkColumns | None = (
            None if word_arcs is not None else _WalkColumns(graph, None)
        )

    def _columns(self) -> _WalkColumns:
        columns = self._walk_columns
        if columns is None:
            columns = self._walk_columns = _WalkColumns(None, self._soa)
        return columns

    @property
    def plain_walk(
        self,
    ) -> Callable[[int, int, float, float], tuple[float, int, bool, int]]:
        """:meth:`_WalkColumns.walk`, bound: ``(state, word, entry,
        threshold) -> (weight, next_state, pruned, levels)``.

        For a caller that walks item by item: it keeps the books, as
        every caller of :meth:`resolve` does, and raises
        :func:`exhausted_word_error` on a ``next_state`` of -1.
        """
        return self._columns().walk

    # -- full back-off resolution (Section 3.3) ----------------------------

    def resolve(
        self,
        state: int,
        word_id: int,
        entry_cost: float = 0.0,
        threshold: float = math.inf,
        preemptive: bool = False,
    ) -> ResolveResult:
        """Match ``word_id`` starting at ``state``, walking back-off arcs
        (:meth:`_WalkColumns.walk`, shared with :meth:`resolve_batch`).

        With a sink, the walk is reported as one ``on_lm_walk(state,
        word_id, levels, pruned)`` event once it ends — before an
        exhausted word raises.

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
        weight, nxt, pruned, levels = self._columns().walk(
            state, word_id, entry_cost, threshold if preemptive else math.inf
        )
        if self._tracing:
            self.sink.on_lm_walk(state, word_id, levels, pruned)
        if nxt < 0:
            raise exhausted_word_error(word_id)
        return ResolveResult(weight, nxt, pruned, levels)

    # -- batched resolution -------------------------------------------------

    def _ensure_batch_structures(self) -> LmWordArcs:
        if self._soa is None:
            self._soa = LmWordArcs.from_graph(self.graph)
        return self._soa

    @property
    def batch_supported(self) -> bool:
        """Whether a batched walk preserves scalar semantics here (the
        batched epsilon phase's gate).

        Requires non-negative LM costs (so a frame's pruning threshold
        cannot move mid-phase) and no trace sink (batched work has no
        per-event order to report).
        """
        return self._ensure_batch_structures().nonneg_weights and not self._tracing

    def reset_transient_state(self) -> None:
        """Nothing to reset: a lookup keeps no state at all (a cold
        Offset Lookup Table is a fresh simulator sink).  It stays for
        ``bench/common.py``'s ``CoreProbe``, which calls it before each
        decode."""

    def resolve_batch(
        self,
        states: Sequence[int],
        words: Sequence[int],
        entry_costs: Sequence[float],
        threshold: float = math.inf,
        preemptive: bool = False,
    ) -> BatchResolveResult:
        """:meth:`resolve` over a batch of (state, word) items.

        No longer the decoder's engine: the batched epsilon phase walks
        each pair through :attr:`plain_walk` in the loop that commits
        it.  It stays as the batch form of the walk, which
        ``bench/common.py``'s ``CoreProbe`` times by name.

        ``resolve``'s walk, item by item in list order, so the results
        are the scalar calls'.
        Native lists in, native lists out: nothing here is array-shaped.
        A word id outside the label space or an LM state outside
        ``[0, num_states)`` raises ``ValueError`` before any item is
        walked; an exhausted item raises once every item is walked.
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
        if -1 in out_next:
            raise exhausted_word_error(words[out_next.index(-1)])
        return BatchResolveResult(out_weight, out_next, out_pruned, out_levels)
