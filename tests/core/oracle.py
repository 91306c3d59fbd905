"""An exhaustive Viterbi search: the decoders' independent optimum.

:meth:`ComposedViterbi.best_cost` searches the materialized phi
composition of a task's AM and LM graphs (``wfst.compose``) frame by
frame, with no beam and no histogram cap, in dense numpy: every frame
takes each emitting arc from every reachable state, then follows
epsilon-input arcs until no cost improves, and the utterance ends at
the least cost plus final weight.  It shares no code with the decoders'
search, so an error they share still shows against it.
"""

import numpy as np

from repro.wfst import EPSILON, compose


class ComposedViterbi:
    """The composed graph of one task as arc columns, searched whole."""

    def __init__(self, am, lm) -> None:
        fst = compose(am.fst, lm.fst, phi_label=lm.backoff_label)
        self.num_states = fst.num_states
        src, ilabel, weight, dst = [], [], [], []
        for state, arc in fst.all_arcs():
            src.append(state)
            ilabel.append(arc.ilabel)
            weight.append(arc.weight)
            dst.append(arc.nextstate)
        src, ilabel, dst = (np.array(c, dtype=np.int64) for c in (src, ilabel, dst))
        weight = np.array(weight, dtype=np.float64)
        emitting = ilabel != EPSILON
        self._emitting = (
            src[emitting], ilabel[emitting] - 1, weight[emitting], dst[emitting]
        )
        self._epsilon = (src[~emitting], weight[~emitting], dst[~emitting])
        self._final = np.array(
            [fst.final_weight(s) for s in fst.states()], dtype=np.float64
        )
        self.start = fst.start

    def best_cost(self, scores: np.ndarray) -> float:
        """The least cost of any path that consumes every frame and ends
        final (``inf`` if none does)."""
        d = np.full(self.num_states, np.inf)
        d[self.start] = 0.0
        src, column, weight, dst = self._emitting
        eps_src, eps_weight, eps_dst = self._epsilon
        for t in range(scores.shape[0]):
            reached = np.full(self.num_states, np.inf)
            np.minimum.at(reached, dst, d[src] + weight - scores[t, column])
            d = reached
            while True:
                closed = d.copy()
                np.minimum.at(closed, eps_dst, d[eps_src] + eps_weight)
                if np.array_equal(closed, d):
                    break
                d = closed
        return float(np.min(d + self._final))
