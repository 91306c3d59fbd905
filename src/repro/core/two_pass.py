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
(see ``benchmarks/bench_ablation_two_pass.py``): accuracy approaches
the one-pass result as the lattice widens, while per-utterance latency
gains a serial rescoring stage.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.am.graph import AmGraph
from repro.core.beam import BeamConfig
from repro.core.decoder import DecodeResult, DecoderConfig, DecoderStats
from repro.core.lattice import WordLattice
from repro.lm.corpus import SENTENCE_END, SENTENCE_START
from repro.lm.graph import LmGraph
from repro.lm.ngram import BackoffNGramModel
from repro.wfst.fst import EPSILON


@dataclass
class TwoPassStats:
    """Activity of both passes."""

    first_pass: DecoderStats = field(default_factory=DecoderStats)
    lattice_paths_rescored: int = 0
    lattice_nodes: int = 0


@dataclass(slots=True)
class _Token:
    am_state: int
    cost: float
    lattice_node: int


class TwoPassDecoder:
    """AM-only first pass + full-LM lattice rescoring second pass."""

    def __init__(
        self,
        am: AmGraph,
        lm: LmGraph,
        ngram: BackoffNGramModel,
        config: DecoderConfig | None = None,
        max_paths: int = 512,
    ) -> None:
        self.am = am
        self.lm = lm
        self.ngram = ngram
        self.config = config or DecoderConfig()
        #: Complete paths extracted from the lattice for rescoring.
        self.max_paths = max_paths
        fst = am.fst
        self._emitting = [
            [a for a in fst.out_arcs(s) if a.ilabel != EPSILON]
            for s in fst.states()
        ]
        self._epsilon = [
            [a for a in fst.out_arcs(s) if a.ilabel == EPSILON]
            for s in fst.states()
        ]
        # Cheap unigram rescoring during pass one keeps hypotheses
        # comparable without any LM state tracking.
        self._unigram_cost = {
            lm.word_id(w): -ngram.log_prob(w)
            for w in ngram.vocabulary
        }

    # -- pass one: AM-only search, lattice out ------------------------------

    def first_pass(
        self, scores: np.ndarray
    ) -> tuple[WordLattice, list[tuple[float, int]], TwoPassStats]:
        config = self.config
        beam = BeamConfig(beam=config.beam, max_active=config.max_active)
        stats = TwoPassStats()
        lattice = WordLattice()
        tokens: dict[int, _Token] = {
            self.am.loop_state: _Token(self.am.loop_state, 0.0, -1)
        }
        num_frames = scores.shape[0]
        for frame in range(num_frames):
            best = min(t.cost for t in tokens.values())
            threshold = best + beam.beam
            survivors = [t for t in tokens.values() if t.cost <= threshold]
            stats.first_pass.beam_pruned += len(tokens) - len(survivors)
            if beam.max_active and len(survivors) > beam.max_active:
                survivors = heapq.nsmallest(
                    beam.max_active, survivors, key=lambda t: t.cost
                )
            frame_scores = scores[frame]
            next_tokens: dict[int, _Token] = {}
            for token in survivors:
                stats.first_pass.am_state_fetches += 1
                for arc in self._emitting[token.am_state]:
                    stats.first_pass.expansions += 1
                    cost = (
                        token.cost + arc.weight - frame_scores[arc.ilabel - 1]
                    )
                    existing = next_tokens.get(arc.nextstate)
                    if existing is None or cost < existing.cost:
                        next_tokens[arc.nextstate] = _Token(
                            arc.nextstate, cost, token.lattice_node
                        )
            # Epsilon phase: cross-word arcs emit lattice nodes with the
            # unigram proxy weight.
            for token in list(next_tokens.values()):
                for arc in self._epsilon[token.am_state]:
                    stats.first_pass.expansions += 1
                    cost = token.cost + arc.weight
                    node = token.lattice_node
                    if arc.olabel != EPSILON:
                        cost += self._unigram_cost[arc.olabel]
                        node = lattice.add(arc.olabel, frame, cost, token.lattice_node)
                        stats.first_pass.words_emitted += 1
                    existing = next_tokens.get(arc.nextstate)
                    if existing is None or cost < existing.cost:
                        next_tokens[arc.nextstate] = _Token(arc.nextstate, cost, node)
            stats.first_pass.tokens_created += len(next_tokens)
            tokens = next_tokens or tokens
        stats.first_pass.frames = num_frames
        stats.lattice_nodes = len(lattice)

        finals = [
            (t.cost, t.lattice_node)
            for t in tokens.values()
            if t.am_state == self.am.loop_state
        ]
        finals.sort()
        return lattice, finals[: self.max_paths], stats

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
        if scores.ndim != 2 or scores.shape[1] < self.am.num_senones:
            raise ValueError(
                f"score matrix shape {scores.shape} incompatible with "
                f"{self.am.num_senones} senones"
            )
        lattice, finals, stats = self.first_pass(scores)
        words, cost = self.rescore(lattice, finals, stats)
        result_stats = stats.first_pass
        return DecodeResult(
            word_ids=words,
            words=[self.lm.words.symbol_of(w) for w in words],
            cost=cost,
            stats=result_stats,
            lattice=lattice,
        )
