"""Two-pass on-the-fly decoding (the alternative the paper rejects).

Section 6 contrasts two software strategies for on-the-fly composition:

* **one-pass** (UNFOLD's choice, :mod:`repro.core.decoder`): LM
  transitions are applied during the search;
* **two-pass** (Ljolje et al. [17]): a first Viterbi pass searches the
  AM alone — rescoring hypotheses only with cheap unigram scores — and
  emits a word lattice; a second pass rescores complete lattice paths
  with the full LM.

The paper argues the two-pass scheme "typically leads to larger
latencies that are harmful for real-time ASR decoders" because no
second-pass work can start until the first pass finishes an utterance.
This module implements the two-pass scheme so that claim is measurable
(see ``benchmarks/bench_ablation_two_pass.py``): per-utterance latency
gains a serial rescoring stage.

The first pass is the on-the-fly decoder itself over a one-state LM
whose self-loops carry the unigram costs, so it runs on the shared frame
step.  It keeps one token per AM state, so at most one hypothesis ends
the utterance: the second pass rescores the first pass's Viterbi path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.am.graph import AmGraph
from repro.core.decoder import (
    DecodeResult,
    DecoderConfig,
    DecoderStats,
    OnTheFlyDecoder,
)
from repro.core.lattice import WordLattice
from repro.lm.corpus import SENTENCE_END, SENTENCE_START
from repro.lm.graph import LmGraph
from repro.lm.ngram import BackoffNGramModel
from repro.wfst.fst import Wfst


@dataclass
class TwoPassStats:
    """Activity of both passes."""

    first_pass: DecoderStats = field(default_factory=DecoderStats)
    lattice_paths_rescored: int = 0
    lattice_nodes: int = 0


def _unigram_graph(lm: LmGraph, unigram_cost: dict[int, float]) -> LmGraph:
    """The first pass's LM: one state, start and final, with a self-loop
    per word at its unigram cost.  It shares ``lm.words``, so word ids
    are the full LM's."""
    fst = Wfst(input_symbols=lm.words, output_symbols=lm.words)
    state = fst.add_state()
    fst.set_start(state)
    fst.set_final(state, 0.0)
    for word_id, cost in unigram_cost.items():
        fst.add_arc(state, word_id, word_id, cost, state)
    fst.arcsort("ilabel")
    return LmGraph(
        fst=fst,
        words=lm.words,
        backoff_label=lm.backoff_label,
        state_of_context={(): state},
        context_of_state=[()],
    )


class TwoPassDecoder:
    """AM-only first pass + full-LM lattice rescoring second pass."""

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        ngram: BackoffNGramModel,
        config: DecoderConfig | None = None,
    ) -> None:
        self.am = am
        self.lm = lm
        self.ngram = ngram
        self.config = config or DecoderConfig()
        # Cheap unigram rescoring during pass one keeps hypotheses
        # comparable without any LM state tracking.
        self._unigram_cost = {
            lm.word_id(w): -ngram.log_prob(w)
            for w in ngram.vocabulary
        }
        # A one-state LM has no back-off to walk or prune.
        self._first = OnTheFlyDecoder(
            am,
            _unigram_graph(lm, self._unigram_cost),
            replace(self.config, preemptive_pruning=False),
        )

    # -- pass one: AM-only search, lattice out ------------------------------

    def first_pass(
        self, scores: np.ndarray
    ) -> tuple[WordLattice, list[tuple[float, int]], TwoPassStats]:
        result = self._first.decode(scores)
        stats = TwoPassStats(
            first_pass=result.stats, lattice_nodes=len(result.lattice)
        )
        return result.lattice, result.finals, stats

    # -- pass two: full-LM rescoring of lattice paths ------------------------

    def rescore(
        self, lattice: WordLattice, finals: list[tuple[float, int]], stats: TwoPassStats
    ) -> tuple[list[int], float]:
        """Exact n-gram rescoring of complete first-pass paths.

        The unigram proxy applied in pass one is removed and replaced by
        the true back-off LM score of the full word sequence.
        """
        best_words: list[int] = []
        best_cost = math.inf
        max_history = self.ngram.order - 1
        for acoustic_cost, node in finals:
            words = lattice.backtrace(node) if node >= 0 else []
            stats.lattice_paths_rescored += 1
            proxy = sum(self._unigram_cost[w] for w in words)
            history = [SENTENCE_START] * max_history
            lm_cost = 0.0
            for word_id in words:
                word = self.lm.words.symbol_of(word_id)
                lm_cost -= self.ngram.log_prob(word, tuple(history))
                history = (history + [word])[-max_history:] if max_history else []
            lm_cost -= self.ngram.log_prob(SENTENCE_END, tuple(history))
            total = acoustic_cost - proxy + lm_cost
            if total < best_cost:
                best_cost = total
                best_words = words
        return best_words, best_cost

    def decode(self, scores: np.ndarray) -> DecodeResult:
        lattice, finals, stats = self.first_pass(scores)
        words, cost = self.rescore(lattice, finals, stats)
        return DecodeResult(
            word_ids=words,
            words=[self.lm.words.symbol_of(w) for w in words],
            cost=cost,
            stats=stats.first_pass,
            lattice=lattice,
            # The first pass's one final, at its rescored cost.
            finals=[(cost, node) for _, node in finals],
        )
