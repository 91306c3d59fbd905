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
from repro.core.composition import LmLookup, LookupStats, exhausted_word_error
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
    "expand", "epsilon", "prune", "gather", "plan", "fill", "seeds", "pairs"
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
    preemptive_pruning: bool = True
    #: Bulk-numpy frame kernels for frontiers large enough to pay for
    #: their dispatch (see :data:`repro.core.batch.SCALAR_FRONTIER_MAX`).
    #: Ignored (scalar path forced) whenever a real TraceSink is
    #: attached: cycle-level simulation needs exact per-event ordering.
    #: Both paths produce identical results and DecoderStats, and so
    #: does a traced decode.
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

    The decoder is reusable across utterances; token tables, lattices
    and stats are per-utterance, and neither the decoder nor its LM
    lookup keeps state between frames, so one serves any number of
    interleaved decodes and sessions.  A traced decoder's sink sees every
    utterance, so what the sink models (the UNFOLD sink's Offset
    Lookup Table, its caches) persists between them, as the hardware
    would.
    """

    #: Where a traced fetch of a token's state and arcs goes: this
    #: dataset, at the id :meth:`_trace_state` gives the token.
    _trace_side = GraphSide.AM
    #: Whether the graph searched is the offline-composed one
    #: (:class:`~repro.core.offline_decoder.FullyComposedDecoder`): its
    #: cross-word arcs were composed offline, so they walk the LM
    #: plainly, uncounted and untraced.
    _composer = False

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
        #: expand (prune, gather, plan, fill) and of epsilon (seeds:
        #: selecting the seeds and reading their columns; pairs: the
        #: loop that walks and commits every pair).
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

    def new_segment(self) -> BatchSegment:
        """Start-of-utterance search state (one token at the loop state)."""
        table = TokenTable()
        table.insert(self.am.loop_state, self.lm.fst.start, 0.0, -1)
        return BatchSegment(table, WordLattice(), DecoderStats())

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
                epsilon(next_table, seeds, frame, lattice, stats, beam_config)
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

    def _epsilon_phase_batched(
        self,
        table: SoaTokenTable,
        frame: int,
        lattice: WordLattice,
        stats: DecoderStats,
        beam_config: BeamConfig,
    ) -> None:
        """One frame's epsilon phase as batched composition.

        Replays the scalar loop exactly under the :meth:`_epsilon_batchable`
        gates: seeds are processed in the worklist's pop order (reverse
        table order), and each (seed, epsilon arc) pair is finished in
        the one pass that reaches it — its arrival cost, for a
        cross-word arc the LM's plain walk (:attr:`LmLookup.plain_walk`:
        the scalar loop's weights, next states and lookup counters), the
        preemptive drop, then the lattice node and the token-table
        insert, in the order the scalar loop made them.  Single-level
        gate: no arrival re-enters the worklist, so nothing else is
        left to do.

        numpy touches only what is frontier-sized — finding the seeds
        and reading their columns; a frame's seeds fan out into a few
        dozen pairs at most (DESIGN.md, "Where a vectorized frame
        goes"), so the pairs run on native values.  Counters, the
        walks' among them, are summed in locals and written once.

        A composed graph's decoder (``FullyComposedDecoder``) sets
        ``_composer``: its cross-word arcs walk from an entry of 0.0
        with no threshold, cost ``token + (arc + lm)``, and count
        nowhere.
        """
        phases = self._phase_seconds
        mark = perf_counter() if phases is not None else 0.0
        am_col, lm_col, cost_col, node_col = table.columns()
        # The worklist pops seeds off the end: reverse table order.
        seed_pos = self._epsilon_flags[am_col].nonzero()[0][::-1]
        if seed_pos.shape[0] == 0:
            return
        seeds = zip(
            am_col[seed_pos].tolist(),
            lm_col[seed_pos].tolist(),
            cost_col[seed_pos].tolist(),
            node_col[seed_pos].tolist(),
        )
        if phases is not None:
            mark = _lap(phases, "seeds", mark)
        threshold = table.best_cost + beam_config.beam
        composer = self._composer
        walk = self.lookup.plain_walk
        limit = threshold if self.config.preemptive_pruning else math.inf
        fanout = self._epsilon_fanout
        num_lm = self._num_lm
        low, high = table.base_key_range()
        base_slot = table.base_slot
        add = lattice.add
        insert = table.insert_hinted
        beam_pruned = expansions = preemptive_pruned = words = backoffs = 0
        for am_state, lm_state, cost, node in seeds:
            if cost > threshold:
                beam_pruned += 1
                continue
            arcs = fanout[am_state]
            expansions += len(arcs)
            for olabel, weight, nextstate, _, _ in arcs:
                arrival = cost + weight
                if olabel == EPSILON:
                    dest_lm = lm_state
                    dest_node = node
                else:
                    if composer:
                        w, dest_lm, _, _ = walk(
                            lm_state, olabel, 0.0, math.inf
                        )
                        arrival = cost + (weight + w)
                    else:
                        w, dest_lm, pruned, levels = walk(
                            lm_state, olabel, arrival, limit
                        )
                        backoffs += levels
                        if pruned:
                            preemptive_pruned += 1
                            continue
                        arrival += w
                    if dest_lm < 0:
                        raise exhausted_word_error(olabel)
                    dest_node = add(olabel, frame, arrival, node)
                    words += 1
                key = nextstate * num_lm + dest_lm
                insert(
                    nextstate,
                    dest_lm,
                    arrival,
                    dest_node,
                    base_slot(key) if low <= key <= high else -1,
                )
        stats.beam_pruned += beam_pruned
        stats.expansions += expansions
        stats.preemptive_pruned += preemptive_pruned
        stats.words_emitted += words
        if not composer:
            # A walk searches each level it reaches, except one it is
            # pruned on arriving at: one lookup per back-off arc taken,
            # plus one per walk that was not pruned (each emitted a word).
            counts = stats.lookup
            counts.lookups += backoffs + words
            counts.backoff_arcs_taken += backoffs
        if phases is not None:
            _lap(phases, "pairs", mark)

    def _epsilon_scalar(
        self,
        table: TokenTable,
        worklist: list[int],
        frame: int,
        lattice: WordLattice,
        stats: DecoderStats,
        beam_config: BeamConfig,
    ) -> None:
        """Propagate tokens across non-emitting arcs within the frame.

        Cross-word arcs trigger the on-the-fly LM transition; this is
        where the composition actually happens.  ``worklist`` holds the
        keys of the tokens at AM states with epsilon arcs, in table
        order (consumed; arrivals at such states join it), and a
        token's cost and lattice node are read when it is popped — an
        improvement since it was listed is seen.  A traced arc fetch
        goes to :attr:`_trace_side`, at the popped token's
        :meth:`_trace_state`.

        The on-the-fly walks go through ``self.lookup.resolve``, read
        once per phase (``bench/``'s ``CoreProbe`` times that instance
        attribute), and their counters are summed in locals, as every
        other counter is.  A composed graph's decoder sets
        ``_composer``, and its cross-word arcs walk the LM plainly,
        uncounted and untraced, as in :meth:`_epsilon_phase_batched`.
        """
        sink = self.sink
        tracing = self._tracing
        side = self._trace_side
        trace_state = self._trace_state
        fanout = self._epsilon_fanout
        preemptive = self.config.preemptive_pruning
        composer = self._composer
        resolve = self.lookup.resolve
        walk = self.lookup.plain_walk if composer else None
        beam = beam_config.beam
        cost_of = table.cost
        node_of = table.node
        get = cost_of.get
        best = table.best_cost
        beam_pruned = expansions = preemptive_pruned = words = backoffs = 0
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
            if tracing:
                fetched = trace_state(am_state, lm_state)
            arcs = fanout[am_state]
            expansions += len(arcs)
            for olabel, weight, nextstate, ordinal, dest_seeds in arcs:
                if tracing:
                    sink.on_arc_fetch(side, fetched, ordinal)
                cost = token_cost + weight
                if olabel == EPSILON:
                    # Silence (or other non-word) epsilon arc.
                    node = token_node
                    dest = nextstate << KEY_SHIFT | lm_state
                else:
                    # Cross-word transition: transition in the LM too.
                    if composer:
                        w, dest_lm, _, _ = walk(
                            lm_state, olabel, 0.0, math.inf
                        )
                        if dest_lm < 0:
                            raise exhausted_word_error(olabel)
                        cost = token_cost + (weight + w)
                    else:
                        result = resolve(
                            lm_state,
                            olabel,
                            entry_cost=cost,
                            threshold=threshold,
                            preemptive=preemptive,
                        )
                        backoffs += result.backoff_levels
                        if result.pruned:
                            preemptive_pruned += 1
                            continue
                        cost += result.weight
                        dest_lm = result.next_state
                    node = lattice.add(olabel, frame, cost, token_node)
                    if tracing:
                        sink.on_token_write()
                    words += 1
                    dest = nextstate << KEY_SHIFT | dest_lm
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
        if not composer:
            # As in the batched phase: a lookup per level searched.
            counts = stats.lookup
            counts.lookups += backoffs + words
            counts.backoff_arcs_taken += backoffs

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
