"""The on-the-fly composition Viterbi decoder (the paper's core).

Frame-synchronous beam search over the pair graph (AM state, LM state)
— Figure 3c.  The AM drives the search: emitting arcs consume acoustic
scores; when a cross-word transition is reached, the LM lookup engine
(``repro.core.composition``) locates the matching LM arc, walking
back-off arcs as needed, and the hypothesis is rescored.  The
fully-composed WFST is never materialized.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from repro.am.graph import AmGraph
from repro.core.arcs import (
    EmittingArcs,
    EpsilonArcs,
    LmWordArcs,
    plan_recombination,
    stable_cost_order,
    weight_column,
)
from repro.core.batch import BatchSegment, advance_segment
from repro.core.beam import BeamConfig, prune_items
from repro.core.composition import LmLookup, LookupStats, LookupStrategy
from repro.core.lattice import WordLattice
from repro.core.tokens import (
    KEY_LM_MASK,
    KEY_SHIFT,
    SoaTokenTable,
    TokenTable,
    unpack_key,
)
from repro.core.trace import GraphSide, TraceSink
from repro.lm.graph import LmGraph
from repro.wfst.fst import EPSILON


#: Clocks a profiled decode accumulates (``other``/``total`` are derived).
_PHASES = (
    "expand", "epsilon", "prune", "gather", "plan", "fill", "resolve", "commit"
)


#: Score rows the scalar frame body turns into plain lists per call.
_ROW_BLOCK = 8


def _lap(phases: dict[str, float], name: str, mark: float) -> float:
    """Charge the time since ``mark`` to ``name``; returns the new mark."""
    now = perf_counter()
    phases[name] += now - mark
    return now


@dataclass(frozen=True)
class DecoderConfig:
    """Search parameters shared by the on-the-fly and baseline decoders."""

    beam: float = 12.0
    max_active: int = 0
    #: The lookup hardware's model (Section 3.5's Offset Lookup Table
    #: and the probing search), which only a traced decode runs: it
    #: sets the LM events and the ``arc_probes`` / ``olt_*`` counters,
    #: never a result.  An untraced decode's lookup is one
    #: ``bisect_left`` per back-off level whatever these say.
    lookup_strategy: LookupStrategy = LookupStrategy.OFFSET_TABLE
    offset_table_entries: int = 32 * 1024
    preemptive_pruning: bool = True
    #: Bulk-numpy frame kernels for frontiers large enough to pay for
    #: their dispatch (see :data:`repro.core.batch.SCALAR_FRONTIER_MAX`).
    #: Ignored (scalar path forced) whenever a real TraceSink is
    #: attached: cycle-level simulation needs exact per-event ordering.
    #: Both paths produce identical results and DecoderStats; a traced
    #: decode's are identical except the modelled lookup counters.
    vectorized: bool = True
    #: Record a per-phase wall-clock breakdown of each decode on the
    #: decoder's ``last_phase_seconds`` (``bench/`` reads it).  Only
    #: reads clocks: the decode takes the same regimes either way.
    #: :meth:`OnTheFlyDecoder.decode_blocks` times its whole loop, so
    #: ``other`` and ``total`` include any wait for a block to arrive
    #: (a score-ahead pool's worker still scoring).
    profile: bool = False

    def beam_config(self) -> BeamConfig:
        return BeamConfig(beam=self.beam, max_active=self.max_active)


@dataclass
class DecoderStats:
    """Aggregate activity of one decode (feeds the accelerator model)."""

    frames: int = 0
    tokens_created: int = 0
    tokens_recombined: int = 0
    beam_pruned: int = 0
    #: Cross-word arcs the LM lookup pruned (it keeps no count of its own).
    preemptive_pruned: int = 0
    #: Arcs walked: one AM arc fetch each.
    expansions: int = 0
    #: Words emitted: one lattice node (token write) each.
    words_emitted: int = 0
    am_state_fetches: int = 0
    active_history: list[int] = field(default_factory=list)
    lookup: LookupStats = field(default_factory=LookupStats)

    @property
    def avg_active_tokens(self) -> float:
        if not self.active_history:
            return 0.0
        return sum(self.active_history) / len(self.active_history)

    @property
    def total_hypotheses(self) -> int:
        """Hypotheses considered: expansions plus preemptively pruned ones."""
        return self.expansions + self.preemptive_pruned


@dataclass
class DecodeResult:
    """Output of one utterance decode."""

    word_ids: list[int]
    words: list[str]
    cost: float
    stats: DecoderStats
    lattice: WordLattice
    #: Final hypotheses as (total cost, lattice node), best first.
    finals: list[tuple[float, int]] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return math.isfinite(self.cost)

    def nbest(self, n: int) -> list[tuple[float, list[int]]]:
        """Up to ``n`` distinct word sequences, best first.

        Viterbi recombination keeps one token per (AM, LM) state pair,
        so alternatives are the surviving word-boundary hypotheses —
        the same n-best a lattice consumer would extract.
        """
        out: list[tuple[float, list[int]]] = []
        seen: set[tuple[int, ...]] = set()
        for cost, node in self.finals:
            words = self.lattice.backtrace(node) if node >= 0 else []
            key = tuple(words)
            if key in seen:
                continue
            seen.add(key)
            out.append((cost, words))
            if len(out) >= n:
                break
        return out


@dataclass(frozen=True)
class DecoderTables:
    """Every graph-derived array a decoder needs, prebuilt.

    The numeric heart of a recognizer: the AM's emitting and epsilon
    CSR columns, the LM's word-arc columns with flattened back-off
    chains, and the per-LM-state final weights.  A decoder constructed
    with ``tables=`` never walks the graphs — which is what lets
    :mod:`repro.shm` hand N worker processes zero-copy read-only views
    of one shared segment instead of N private copies.
    """

    emitting: EmittingArcs
    epsilon: EpsilonArcs
    lm_word_arcs: LmWordArcs
    #: float64 per LM state, ``inf`` when non-final.
    lm_final_weights: np.ndarray

    @classmethod
    def from_graphs(
        cls, am: AmGraph, lm: LmGraph, weight_dtype: type = np.float64
    ) -> "DecoderTables":
        """Flatten both graphs, every weight as ``weight_dtype`` stores
        it (:func:`~repro.core.arcs.weight_column`).  ``np.float32``
        gives the deployable tables: the bundle codec's rounding,
        without building its round-tripped graphs."""
        return cls(
            emitting=EmittingArcs.from_fst(am.fst, weight_dtype),
            epsilon=EpsilonArcs.from_fst(am.fst, weight_dtype),
            lm_word_arcs=LmWordArcs.from_graph(lm, weight_dtype),
            lm_final_weights=weight_column(
                [lm.fst.final_weight(s) for s in lm.fst.states()],
                weight_dtype,
            ),
        )


class OnTheFlyDecoder:
    """UNFOLD's decoding algorithm, functionally modelled.

    The decoder is reusable across utterances; a traced decoder's
    Offset Lookup Table persists between utterances (as the hardware
    table would), while token tables and lattices are per-utterance.
    """

    #: Where a traced fetch of a token's state and arcs goes: this
    #: dataset, at the id :meth:`_trace_state` gives the token.
    _trace_side = GraphSide.AM

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        config: DecoderConfig | None = None,
        sink: TraceSink | None = None,
        tables: DecoderTables | None = None,
    ) -> None:
        self.am = am
        self.lm = lm
        self.config = config or DecoderConfig()
        self.sink = sink
        # Purely functional runs skip per-event sink calls in the hot loop.
        self._tracing = sink is not None
        self.tables = tables
        self.lookup = LmLookup(
            lm,
            strategy=self.config.lookup_strategy,
            offset_table_entries=self.config.offset_table_entries,
            sink=sink,
            word_arcs=tables.lm_word_arcs if tables is not None else None,
        )
        # CSR columns: what the numpy kernels gather from, and what the
        # scalar body's per-state rows are built from on its first frame
        # (private to the process even when the columns are shared
        # memory; see DESIGN.md, "Frame-step regimes", for their size).
        if tables is None:
            self._arcs = EmittingArcs.from_fst(am.fst)
            self._eps_arcs = EpsilonArcs.from_fst(am.fst)
            self._lm_final_w = np.array(
                [lm.fst.final_weight(s) for s in lm.fst.states()],
                dtype=np.float64,
            )
        else:
            self._arcs = tables.emitting
            self._eps_arcs = tables.epsilon
            self._lm_final_w = tables.lm_final_weights
        self._beam_config = self.config.beam_config()
        #: Whether large frontiers may take the numpy frame kernels.
        self._vectorized = (
            self.config.vectorized
            and not self._tracing
            and self._arcs.pure_emitting
        )
        #: Phase -> seconds of the profiled decode in flight.
        self._phase_seconds: dict[str, float] | None = None
        self._num_lm = lm.fst.num_states
        #: One past the largest ``am * num_lm + lm`` key a kernel frame
        #: can produce: the planner's packing bound, so it never scans.
        self._key_bound = (self._arcs.offsets.shape[0] - 1) * self._num_lm
        self._epsilon_flags = self._eps_arcs.has_arcs
        #: Wall-clock phase breakdown of the last decode (when
        #: ``config.profile``), in seconds: expand (prune + emitting),
        #: epsilon, other (bookkeeping + finalize), total — and, for
        #: the frames that took the numpy kernels, the sections of
        #: expand (prune, gather, plan, fill) and of epsilon (resolve,
        #: commit; its seed selection and gather are the remainder).
        self.last_phase_seconds: dict[str, float] | None = None

    @cached_property
    def _emitting_rows(self) -> list[list[tuple[int, float, int, int, bool]]]:
        """Per AM state, its emitting arcs as the scalar body walks them
        (:meth:`EmittingArcs.scalar_rows`; built on its first frame)."""
        return self._arcs.scalar_rows(self._eps_arcs.has_arcs.tolist())

    @cached_property
    def _epsilon_fanout(
        self,
    ) -> list[tuple[tuple[int, float, int, int, bool], ...]]:
        """Per AM state, its epsilon arcs as ``(olabel, weight, nextstate,
        ordinal, dest_has_epsilon)`` tuples — what both epsilon phases
        fan their seeds out from (built on the first one's first frame)."""
        return self._eps_arcs.fanout()

    def _trace_state(self, am_state: int, lm_state: int) -> int:
        return am_state

    def new_segment(self, lookup: LmLookup | None = None) -> BatchSegment:
        """Start-of-utterance search state (one token at the loop state)."""
        table = TokenTable()
        table.insert(self.am.loop_state, self.lm.fst.start, 0.0, -1)
        return BatchSegment(
            table,
            lookup if lookup is not None else self.lookup,
            WordLattice(),
            DecoderStats(),
        )

    def decode(self, scores: np.ndarray) -> DecodeResult:
        """Decode one utterance from its acoustic score matrix."""
        return self.decode_blocks([scores])

    def decode_blocks(self, blocks: Iterable[np.ndarray]) -> DecodeResult:
        """Decode one utterance whose score rows arrive a block at a
        time; the result equals :meth:`decode`'s of the blocks stacked
        (the streaming parity contract), whatever their sizes."""
        profile = self.config.profile
        started = perf_counter() if profile else 0.0
        self._phase_seconds = dict.fromkeys(_PHASES, 0.0) if profile else None
        start_lookup = self.lookup.stats.clone()
        seg = self.new_segment()
        for scores in blocks:
            if scores.ndim != 2 or scores.shape[1] < self.am.num_senones:
                raise ValueError(
                    f"score matrix shape {scores.shape} incompatible with "
                    f"{self.am.num_senones} senones"
                )
            # Every regime sees bit-identical float64 score values.
            advance_segment(
                self, seg, np.ascontiguousarray(scores, dtype=np.float64)
            )
        seg.stats.frames = seg.frame
        seg.stats.lookup = self.lookup.stats.since(start_lookup)
        result = self._finalize(seg.table, seg.lattice, seg.stats)
        if profile:
            total = perf_counter() - started
            phases = self._phase_seconds
            self._phase_seconds = None
            phases["other"] = total - phases["expand"] - phases["epsilon"]
            phases["total"] = total
            self.last_phase_seconds = phases
        return result

    def _scalar_run(
        self,
        seg: BatchSegment,
        rows: np.ndarray | Sequence[np.ndarray],
        limit: float = math.inf,
    ) -> int:
        """Consume ``rows`` (float64 score rows) on ``seg`` in the scalar
        frame body, frame by frame, while the frontier entering a frame
        is at most ``limit`` tokens; returns the number of frames
        consumed.

        The reference path: every frame under a TraceSink (exact
        per-event ordering), a scalar config or an epsilon graph the
        batched phase cannot serve, and any frame whose frontier is too
        small to pay for the numpy kernels' dispatch.
        A small-frontier segment runs its consecutive frames through one
        call, so the per-frame price is the body itself: the beam prune
        is folded into the expansion loop (a token above the threshold
        is skipped where it is read), Viterbi recombination
        (:meth:`TokenTable.insert`'s) runs inline on the new table's two
        dicts, and the ``DecoderStats`` counters the run owns are added
        up in locals and written once at its end.  ``active_history``
        and the sink's ``on_frame_end`` still get one entry per frame.
        No token table is built per frame: the run alternates two of its
        own (never the one it entered with, which the caller may hold),
        giving each frame two fresh dicts; the epsilon worklist is one
        list each phase leaves empty; and score rows become plain lists
        one block of at most :data:`_ROW_BLOCK` rows per call, as they
        are reached, so a run that stops on a grown frontier has
        converted at most ``_ROW_BLOCK - 1`` rows it did not consume.

        :func:`~repro.core.beam.prune_items` selects the survivors
        instead when ``max_active`` may truncate them, and for a
        :class:`SoaTokenTable` frontier (a run entered after a
        vectorized frame).

        The epsilon seeds are the keys of the new table whose AM state
        has epsilon arcs, collected at first insertion — which, the
        table having started empty, is table order; a frame without
        one skips the epsilon phase.
        """
        emitting = self._emitting_rows
        tracing = self._tracing
        sink = self.sink
        side = self._trace_side
        trace_state = self._trace_state
        epsilon = self._epsilon_scalar
        phases = self._phase_seconds
        beam_config = self._beam_config
        beam = beam_config.beam
        max_active = beam_config.max_active
        stats = seg.stats
        lattice = seg.lattice
        lookup = seg.lookup
        active_history = stats.active_history.append
        table = seg.table
        frame = seg.frame
        consumed = 0
        beam_pruned = fetches = expansions = created = recombined = 0
        mark = 0.0
        rows = np.asarray(rows)
        total = len(rows)
        block: list[list[float]] = []
        at = 0
        spare: TokenTable | None = None
        seeds: list[int] = []
        size = len(table)
        while consumed < total:
            if size > limit:
                break
            if phases is not None:
                mark = perf_counter()
            if type(table) is TokenTable and (
                not max_active or size <= max_active
            ):
                token_costs = table.cost
                token_nodes = table.node
                threshold = table.best_cost + beam
            else:
                survivors, _ = prune_items(table, beam_config)
                token_costs = {key: cost for key, cost, _ in survivors}
                token_nodes = {key: node for key, _, node in survivors}
                threshold = math.inf
            if tracing:
                # The events depend on the survivors alone and nothing
                # else reports during the expansion: told up front, they
                # arrive in the order the loop below would raise them.
                for key, token_cost in token_costs.items():
                    if not token_cost <= threshold:
                        continue
                    am_state, lm_state = unpack_key(key)
                    fetched = trace_state(am_state, lm_state)
                    sink.on_state_fetch(side, fetched)
                    sink.on_token_hash_access(am_state, lm_state)
                    for arc in emitting[am_state]:
                        sink.on_arc_fetch(side, fetched, arc[0])
            # Plain-list scores: per-element numpy indexing would
            # dominate the token loop.
            if at == len(block):
                block = rows[consumed:consumed + _ROW_BLOCK].tolist()
                at = 0
            frame_scores = block[at]
            at += 1
            if spare is None:
                next_table = TokenTable()
                cost_of = next_table.cost
                node_of = next_table.node
            else:
                next_table = spare
                next_table.cost = cost_of = {}
                next_table.node = node_of = {}
            get = cost_of.get
            best = math.inf
            pruned = improvements = recombinations = 0
            for key, token_cost in token_costs.items():
                if not token_cost <= threshold:
                    pruned += 1
                    continue
                lattice_node = token_nodes[key]
                for _, weight, column, key_delta, dest_seeds in emitting[
                    key >> KEY_SHIFT
                ]:
                    cost = token_cost + weight - frame_scores[column]
                    dest = key + key_delta
                    existing = get(dest)
                    if existing is None:
                        if dest_seeds:
                            seeds.append(dest)
                    elif cost < existing:
                        improvements += 1
                    else:
                        recombinations += 1
                        continue
                    cost_of[dest] = cost
                    node_of[dest] = lattice_node
                    if cost < best:
                        best = cost
            next_table.best_cost = best
            next_table.inserts = inserts = len(cost_of)
            next_table.improvements = improvements
            next_table.recombinations = recombinations
            survivors_count = len(token_costs) - pruned
            if phases is not None:
                mark = _lap(phases, "expand", mark)
            if seeds:
                epsilon(
                    next_table, seeds, frame, lattice, stats, beam_config,
                    lookup,
                )
            if phases is not None:
                _lap(phases, "epsilon", mark)
            beam_pruned += size - survivors_count
            fetches += survivors_count
            # Each arc walked inserted, improved or recombined.
            expansions += inserts + improvements + recombinations
            created += next_table.inserts
            recombined += next_table.recombinations
            size = len(cost_of)
            active_history(size)
            if tracing:
                sink.on_frame_end(frame, size)
            if table is not seg.table:
                spare = table
            table = next_table
            frame += 1
            consumed += 1
        seg.table = table
        seg.frame = frame
        stats.beam_pruned += beam_pruned
        stats.am_state_fetches += fetches
        stats.expansions += expansions
        stats.tokens_created += created
        stats.tokens_recombined += recombined
        return consumed

    def _expand_frame_vectorized(
        self,
        table: SoaTokenTable,
        score_row: np.ndarray,
        beam_config: BeamConfig,
    ) -> tuple[SoaTokenTable, int, int, int]:
        """Prune + emitting expansion for one frame, in bulk numpy.

        Replicates the scalar path exactly: same survivor set in the
        same order (``heapq.nsmallest`` is stable, so a stable cost
        argsort reproduces it), candidate costs computed with the same
        operation order on the same float64 values, and sequential
        recombination outcomes replayed by :func:`plan_recombination`.

        ``num_am_states * num_lm``, held by the decoder, bounds the
        planner's keys, so no batch is scanned for its largest key.
        Each candidate reads its source token's columns through one
        ``keep[token_index]`` gather, and its cost is one add and one
        in-place subtract of the frame's score row.

        Returns (next_table, num_survivors, frame_expansions, pruned).
        """
        phases = self._phase_seconds
        mark = perf_counter() if phases is not None else 0.0
        am_col, lm_col, cost_col, node_col = table.columns()
        total = am_col.shape[0]
        next_table = SoaTokenTable(self._num_lm)
        if total == 0:
            return next_table, 0, 0, 0
        threshold = table.best_cost + beam_config.beam
        keep = (cost_col <= threshold).nonzero()[0]
        pruned = total - keep.shape[0]
        max_active = beam_config.max_active
        if max_active and keep.shape[0] > max_active:
            keep = keep[stable_cost_order(cost_col[keep])[:max_active]]
            pruned = total - max_active
        num_survivors = int(keep.shape[0])
        if phases is not None:
            mark = _lap(phases, "prune", mark)
        arcs = self._arcs
        token_index, flat = arcs.gather(am_col[keep])
        frame_expansions = int(flat.shape[0])
        if frame_expansions == 0:
            return next_table, num_survivors, 0, pruned
        source = keep[token_index]
        # (token + arc) - score, in the scalar body's order.
        candidate_cost = cost_col[source]
        candidate_cost += arcs.weight[flat]
        candidate_cost -= score_row[arcs.score_index[flat]]
        candidate_next = arcs.nextstate[flat]
        candidate_lm = lm_col[source]
        keys = candidate_next * self._num_lm
        keys += candidate_lm
        if phases is not None:
            mark = _lap(phases, "gather", mark)
        plan = plan_recombination(keys, candidate_cost, self._key_bound)
        if phases is not None:
            mark = _lap(phases, "plan", mark)
        winners = plan.winners
        next_table.bulk_fill(
            candidate_next[winners],
            candidate_lm[winners],
            candidate_cost[winners],
            node_col[source[winners]],
            plan.sorted_keys,
            plan.group_starts,
            plan.first_arrival,
            plan.improvements,
            plan.recombinations,
        )
        if phases is not None:
            _lap(phases, "fill", mark)
        return next_table, num_survivors, frame_expansions, pruned

    def _epsilon_batchable(self) -> bool:
        """Whether the batched epsilon phase preserves scalar semantics.

        Three conditions: the epsilon graph must be single-level (the
        phase's worklist never grows, so the whole phase is a function
        of its seeds), and both the epsilon arc weights and the LM's
        costs must be non-negative (no within-phase insert can beat
        ``best_cost``, so the frame's pruning threshold — which the
        scalar loop re-reads per token — is constant).  A decoder that
        fails one runs every frame in the scalar body
        (:func:`~repro.core.batch.advance_segment` asks when a frontier
        first outgrows the scalar regime, so no set-up work moves).
        """
        return (
            self._eps_arcs.single_level
            and self._eps_arcs.nonneg_weights
            and self.lookup.batch_supported
        )

    def _cross_word_arrivals(
        self,
        lookup: LmLookup,
        lm_states: Sequence[int],
        words: Sequence[int],
        token_costs: Sequence[float],
        arc_weights: Sequence[float],
        threshold: float,
    ) -> tuple[list[float], list[int], list[bool]]:
        """A frame's cross-word arcs, composed with the LM.

        Per arc: the arriving token's cost, its LM state, and whether
        preemptive pruning dropped it mid-walk — added up in the scalar
        loop's order, ``(token + arc) + lm``.
        """
        base_costs = [t + a for t, a in zip(token_costs, arc_weights)]
        result = lookup.resolve_batch(
            lm_states,
            words,
            base_costs,
            threshold=threshold,
            preemptive=self.config.preemptive_pruning,
        )
        return (
            [b + w for b, w in zip(base_costs, result.weight)],
            result.next_state,
            result.pruned,
        )

    def _epsilon_phase_batched(
        self,
        table: SoaTokenTable,
        frame: int,
        lattice: WordLattice,
        stats: DecoderStats,
        beam_config: BeamConfig,
        lookup: LmLookup | None = None,
    ) -> None:
        """One frame's epsilon phase as batched composition.

        Replays the scalar loop exactly under the :meth:`_epsilon_batchable`
        gates: seeds are processed in the worklist's pop order (reverse
        table order), LM transitions resolve through
        :meth:`LmLookup.resolve_batch` (the scalar loop's plain walk:
        bit-identical weights and lookup counters), and the
        surviving arrivals are committed to the lattice and token
        table in the same interleaved order the scalar loop used.

        numpy touches only what is frontier-sized — finding the seeds
        and reading their columns; a frame's seeds fan out into a few
        dozen arcs at most (DESIGN.md, "Where a vectorized frame
        goes"), so everything pair-sized runs on native lists: one
        pass over the seeds appends each pair's fields to their own
        columns.
        """
        if lookup is None:
            lookup = self.lookup
        am_col, lm_col, cost_col, node_col = table.columns()
        # The worklist pops seeds off the end: reverse table order.
        seed_pos = self._epsilon_flags[am_col].nonzero()[0][::-1]
        if seed_pos.shape[0] == 0:
            return
        threshold = table.best_cost + beam_config.beam
        fanout = self._epsilon_fanout
        pair_lm: list[int] = []
        pair_olabel: list[int] = []
        token_cost: list[float] = []
        arc_weight: list[float] = []
        pair_dest: list[int] = []
        pair_node: list[int] = []
        add_lm, add_olabel = pair_lm.append, pair_olabel.append
        add_cost, add_weight = token_cost.append, arc_weight.append
        add_dest, add_node = pair_dest.append, pair_node.append
        beam_pruned = 0
        for am_state, lm_state, cost, node in zip(
            am_col[seed_pos].tolist(),
            lm_col[seed_pos].tolist(),
            cost_col[seed_pos].tolist(),
            node_col[seed_pos].tolist(),
        ):
            if cost > threshold:
                beam_pruned += 1
                continue
            for olabel, weight, nextstate, _, _ in fanout[am_state]:
                add_lm(lm_state)
                add_olabel(olabel)
                add_cost(cost)
                add_weight(weight)
                add_dest(nextstate)
                add_node(node)
        num_pairs = len(pair_olabel)
        stats.beam_pruned += beam_pruned
        stats.expansions += num_pairs
        if num_pairs == 0:
            return

        phases = self._phase_seconds
        mark = perf_counter() if phases is not None else 0.0
        if EPSILON not in pair_olabel:
            # Common AM shape: every epsilon arc is a cross-word arc.
            final_cost, final_lm, pruned = self._cross_word_arrivals(
                lookup, pair_lm, pair_olabel, token_cost, arc_weight, threshold
            )
        else:
            final_cost = [t + a for t, a in zip(token_cost, arc_weight)]
            final_lm = list(pair_lm)
            pruned = [False] * num_pairs
            word_idx = [
                i for i, olabel in enumerate(pair_olabel) if olabel != EPSILON
            ]
            if word_idx:
                arrivals = self._cross_word_arrivals(
                    lookup,
                    [pair_lm[i] for i in word_idx],
                    [pair_olabel[i] for i in word_idx],
                    [token_cost[i] for i in word_idx],
                    [arc_weight[i] for i in word_idx],
                    threshold,
                )
                for i, cost, lm_state, dropped in zip(word_idx, *arrivals):
                    final_cost[i] = cost
                    final_lm[i] = lm_state
                    pruned[i] = dropped
        stats.preemptive_pruned += pruned.count(True)
        if phases is not None:
            mark = _lap(phases, "resolve", mark)

        num_lm = self._num_lm
        hints = table.base_slot_hints(
            [dest * num_lm + lm for dest, lm in zip(pair_dest, final_lm)]
        )
        add = lattice.add
        insert = table.insert_hinted
        words_done = 0
        # Single-level gate: no arrival re-enters the worklist, so the
        # scalar loop's remaining work is exactly this commit sequence.
        for olabel, cost, lm_state, dest, node, hint, dropped in zip(
            pair_olabel, final_cost, final_lm, pair_dest, pair_node, hints, pruned
        ):
            if dropped:
                continue
            if olabel != EPSILON:
                node = add(olabel, frame, cost, node)
                words_done += 1
            insert(dest, lm_state, cost, node, hint)
        stats.words_emitted += words_done
        if phases is not None:
            _lap(phases, "commit", mark)

    def _epsilon_scalar(
        self,
        table: TokenTable,
        worklist: list[int],
        frame: int,
        lattice: WordLattice,
        stats: DecoderStats,
        beam_config: BeamConfig,
        lookup: LmLookup,
    ) -> None:
        """Propagate tokens across non-emitting arcs within the frame.

        Cross-word arcs trigger the on-the-fly LM transition; this is
        where the composition actually happens.  ``worklist`` holds the
        keys of the tokens at AM states with epsilon arcs, in table
        order (consumed; arrivals at such states join it), and a
        token's cost and lattice node are read when it is popped — an
        improvement since it was listed is seen.
        """
        sink = self.sink
        tracing = self._tracing
        fanout = self._epsilon_fanout
        preemptive = self.config.preemptive_pruning
        resolve = lookup.resolve
        beam = beam_config.beam
        cost_of = table.cost
        node_of = table.node
        get = cost_of.get
        best = table.best_cost
        beam_pruned = expansions = preemptive_pruned = words = 0
        improvements = recombinations = 0
        while worklist:
            key = worklist.pop()
            token_cost = cost_of[key]
            threshold = best + beam
            if token_cost > threshold:
                beam_pruned += 1
                continue
            am_state = key >> KEY_SHIFT
            lm_state = key & KEY_LM_MASK
            token_node = node_of[key]
            arcs = fanout[am_state]
            expansions += len(arcs)
            for olabel, weight, nextstate, ordinal, dest_seeds in arcs:
                if tracing:
                    sink.on_arc_fetch(GraphSide.AM, am_state, ordinal)
                cost = token_cost + weight
                if olabel == EPSILON:
                    # Silence (or other non-word) epsilon arc.
                    node = token_node
                    dest = nextstate << KEY_SHIFT | lm_state
                else:
                    # Cross-word transition: transition in the LM too.
                    result = resolve(
                        lm_state,
                        olabel,
                        entry_cost=cost,
                        threshold=threshold,
                        preemptive=preemptive,
                    )
                    if result.pruned:
                        preemptive_pruned += 1
                        continue
                    cost += result.weight
                    node = lattice.add(olabel, frame, cost, token_node)
                    if tracing:
                        sink.on_token_write()
                    words += 1
                    dest = nextstate << KEY_SHIFT | result.next_state
                existing = get(dest)
                if existing is not None:
                    if cost < existing:
                        improvements += 1
                    else:
                        recombinations += 1
                        continue
                cost_of[dest] = cost
                node_of[dest] = node
                if cost < best:
                    best = cost
                if dest_seeds:
                    worklist.append(dest)
        table.best_cost = best
        table.inserts = len(cost_of)
        table.improvements += improvements
        table.recombinations += recombinations
        stats.beam_pruned += beam_pruned
        stats.expansions += expansions
        stats.preemptive_pruned += preemptive_pruned
        stats.words_emitted += words

    def _final_hypotheses(
        self, table: TokenTable | SoaTokenTable
    ) -> list[tuple[float, int]]:
        """(total cost, lattice node) of every token that can end the
        utterance: at the word-boundary state, in a final LM state."""
        am_col, lm_col, cost_col, node_col = table.columns()
        at_loop = np.flatnonzero(am_col == self.am.loop_state)
        totals = cost_col[at_loop] + self._lm_final_w[lm_col[at_loop]]
        finite = np.isfinite(totals)
        return list(
            zip(totals[finite].tolist(), node_col[at_loop][finite].tolist())
        )

    def _finalize(
        self, table: TokenTable, lattice: WordLattice, stats: DecoderStats
    ) -> DecodeResult:
        finals = self._final_hypotheses(table)
        finals.sort()
        if finals:
            best_cost, best_node = finals[0]
            word_ids = lattice.backtrace(best_node) if best_node >= 0 else []
        else:
            best_cost, word_ids = math.inf, []
        words = [self.lm.words.symbol_of(w) for w in word_ids]
        return DecodeResult(
            word_ids=word_ids,
            words=words,
            cost=best_cost,
            stats=stats,
            lattice=lattice,
            finals=finals,
        )
