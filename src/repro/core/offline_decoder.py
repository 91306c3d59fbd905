"""Fully-composed baseline Viterbi decoder (Reza et al. [34]).

The same frame-synchronous beam search as the on-the-fly decoder, over
the single offline-composed WFST: one state id per token, one arc fetch
per expansion, no LM lookups, no back-off walks at decode time — and,
correspondingly, the gigabyte-scale dataset the paper is built to
eliminate.

The decoder takes the AM and LM graphs themselves; nothing
materializes or wraps their composition.  A composed state *is* an
(AM state, LM state) pair, addressed densely as ``am * num_lm + lm``
(:meth:`FullyComposedDecoder._trace_state`, the id
:class:`~repro.accel.layout.ComposedLayout` decodes), and a composed
arc is an AM arc with the LM side carried along — moved only on
cross-word arcs, by exactly the LM transition the on-the-fly lookup
would resolve.  So the baseline runs the on-the-fly decoder's token
tables, frame step and kernels (both regimes of
:func:`repro.core.batch.advance_segment`), and this module supplies only
what a composed graph changes:

* the weight of a cross-word arc was fixed offline as
  ``am_weight + lm_weight`` — back-off penalties included — so an
  arrival costs ``token + (am + lm)`` rather than the on-the-fly
  ``(token + am) + lm``, and nothing at decode time can prune the
  back-off walk or consult an Offset Lookup Table;
* trace events address the one composed dataset, by encoded state id;
* a hypothesis may end the utterance when *both* sides are final.

The explored graph is path-identical to the materialized phi
composition (``wfst.compose(am.fst, lm.fst, phi_label=lm.backoff_label)``):
with pruning off, the best cost equals an exhaustive Viterbi search of
that graph exactly (``tests/core/test_decoder.py``,
``TestVirtualComposedGraph``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.am.graph import AmGraph
from repro.core.beam import BeamConfig
from repro.core.composition import LmLookup, LookupStrategy
from repro.core.decoder import DecoderConfig, DecoderStats, OnTheFlyDecoder
from repro.core.lattice import WordLattice
from repro.core.tokens import (
    KEY_LM_MASK,
    KEY_SHIFT,
    SoaTokenTable,
    TokenTable,
)
from repro.core.trace import GraphSide, TraceSink
from repro.lm.graph import LmGraph
from repro.wfst.fst import EPSILON


class FullyComposedDecoder(OnTheFlyDecoder):
    """Beam search over the offline-composed graph."""

    _trace_side = GraphSide.COMPOSED

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        config: DecoderConfig | None = None,
        sink: TraceSink | None = None,
    ) -> None:
        # The knobs of the on-the-fly lookup do not exist here, whatever
        # the caller's config says.
        super().__init__(
            am,
            lm,
            replace(
                config or DecoderConfig(),
                lookup_strategy=LookupStrategy.BINARY,
                preemptive_pruning=False,
            ),
            sink,
        )
        # ``self.lookup`` is the decode-time lookup every segment is
        # accounted against, and a composed graph never consults it: its
        # counters stay zero.  The LM side of the composition is a
        # private fork's work (forks never trace), the stand-in for what
        # was paid offline.
        self._composer = self.lookup.fork()
        am_fst = am.fst
        self._am_final_w = np.array(
            [am_fst.final_weight(s) for s in am_fst.states()], dtype=np.float64
        )

    def _trace_state(self, am_state: int, lm_state: int) -> int:
        return am_state * self._num_lm + lm_state

    def _cross_word_arrivals(
        self,
        lookup: LmLookup,
        lm_states: Sequence[int],
        words: Sequence[int],
        token_costs: Sequence[float],
        arc_weights: Sequence[float],
        threshold: float,
    ) -> tuple[list[float], list[int], list[bool]]:
        """Cross-word arcs at their offline-composed weight, unpruned."""
        result = self._composer.resolve_batch(
            lm_states, words, [0.0] * len(words)
        )
        return (
            [
                t + (a + w)
                for t, a, w in zip(token_costs, arc_weights, result.weight)
            ],
            result.next_state,
            result.pruned,
        )

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
        """The scalar epsilon phase over composed arcs.

        The on-the-fly loop with the cross-word step replaced: the LM
        transition is part of the arc (no threshold, no pruning), and
        its weight joins the AM arc's before the token's cost.
        """
        compose = self._composer.resolve
        sink = self.sink
        tracing = self._tracing
        fanout = self._epsilon_fanout
        beam = beam_config.beam
        cost_of = table.cost
        node_of = table.node
        get = cost_of.get
        best = table.best_cost
        beam_pruned = expansions = words = 0
        improvements = recombinations = 0
        while worklist:
            key = worklist.pop()
            token_cost = cost_of[key]
            if token_cost > best + beam:
                beam_pruned += 1
                continue
            am_state = key >> KEY_SHIFT
            token_lm = key & KEY_LM_MASK
            token_node = node_of[key]
            if tracing:
                fetched = self._trace_state(am_state, token_lm)
            arcs = fanout[am_state]
            expansions += len(arcs)
            for olabel, weight, nextstate, ordinal, dest_seeds in arcs:
                if tracing:
                    sink.on_arc_fetch(GraphSide.COMPOSED, fetched, ordinal)
                if olabel == EPSILON:
                    cost = token_cost + weight
                    node = token_node
                    dest = nextstate << KEY_SHIFT | token_lm
                else:
                    composed = compose(token_lm, olabel)
                    cost = token_cost + (weight + composed.weight)
                    node = lattice.add(olabel, frame, cost, token_node)
                    if tracing:
                        sink.on_token_write()
                    words += 1
                    dest = nextstate << KEY_SHIFT | composed.next_state
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
        stats.words_emitted += words

    def _final_hypotheses(
        self, table: TokenTable | SoaTokenTable
    ) -> list[tuple[float, int]]:
        """Tokens whose AM *and* LM sides are final, at the composed
        final weight (the two sides' sum)."""
        am_col, lm_col, cost_col, node_col = table.columns()
        totals = cost_col + (
            self._am_final_w[am_col] + self._lm_final_w[lm_col]
        )
        finite = np.isfinite(totals)
        return list(zip(totals[finite].tolist(), node_col[finite].tolist()))
