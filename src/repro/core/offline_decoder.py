"""Fully-composed baseline Viterbi decoder (Reza et al. [34]).

The same frame-synchronous beam search as the on-the-fly decoder, over
the single offline-composed WFST: one state id per token, one arc fetch
per expansion, no LM lookups, no back-off walks at decode time — and,
correspondingly, the gigabyte-scale dataset the paper is built to
eliminate.

The decoder takes the AM and LM graphs themselves; nothing
materializes or wraps their composition.  A composed state *is* an
(AM state, LM state) pair, the pair its trace events name and
:class:`~repro.accel.layout.ComposedLayout` addresses, and a composed
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
  back-off walk (both epsilon phases are the on-the-fly decoder's own
  loops, which take this arithmetic when they find ``_composer`` set,
  and walk the LM plainly, uncounted and untraced: the stand-in for
  what was paid offline);
* a hypothesis may end the utterance when *both* sides are final.

The explored graph is path-identical to the materialized phi
composition (``wfst.compose(am.fst, lm.fst, phi_label=lm.backoff_label)``):
with pruning off, the best cost equals an exhaustive Viterbi search of
that graph exactly (``tests/core/test_decoder.py``,
``TestVirtualComposedGraph``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.am.graph import AmGraph
from repro.core.decoder import DecoderConfig, OnTheFlyDecoder
from repro.core.tokens import SoaTokenTable, TokenTable
from repro.core.trace import TraceSink
from repro.lm.graph import LmGraph


class FullyComposedDecoder(OnTheFlyDecoder):
    """Beam search over the offline-composed graph.

    Its cross-word arcs were composed offline, so no decode-time LM
    lookup is counted or traced: ``DecoderStats.lookup`` stays zero.
    """

    _composer = True

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        config: DecoderConfig | None = None,
        sink: TraceSink | None = None,
    ) -> None:
        # Nothing at decode time can prune a composed arc's back-off
        # walk, whatever the caller's config says.
        super().__init__(
            am,
            lm,
            replace(config or DecoderConfig(), preemptive_pruning=False),
            sink,
        )
        am_fst = am.fst
        self._am_final_w = np.array(
            [am_fst.final_weight(s) for s in am_fst.states()], dtype=np.float64
        )

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
