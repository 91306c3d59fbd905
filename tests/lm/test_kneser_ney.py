"""Tests for the Kneser-Ney estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm import (
    SENTENCE_END,
    ReferenceGrammar,
    build_lm_graph,
    make_vocabulary,
    train_ngram_model,
)
from repro.lm.kneser_ney import KneserNeyModel, train_kneser_ney
from repro.lm.ngram import NGramCounts


def _corpus(seed=3, vocab_size=30, sentences=400, branching=4):
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(vocab_size, rng)
    grammar = ReferenceGrammar.random(vocab, rng, branching=branching)
    return vocab, grammar, grammar.sample_corpus(sentences)


class TestKneserNey:
    def test_normalization_all_contexts(self):
        vocab, _, corpus = _corpus()
        model = train_kneser_ney(corpus, vocab, order=3)
        events = vocab + [SENTENCE_END]
        for k in range(model.order):
            for context in model.explicit_contexts(k):
                total = sum(model.prob(w, context) for w in events)
                assert total == pytest.approx(1.0, abs=1e-8), context

    def test_continuation_effect(self):
        """A word seen often but in one context only gets a small
        unigram back-off probability — the defining KN behaviour."""
        vocab = ["san", "francisco", "york", "new"]
        corpus = [["san", "francisco"]] * 30 + [
            ["new", "york"],
            ["new", "francisco"],  # give 'francisco' a 2nd context once
            ["york", "san"],
            ["york", "new"],
            ["san", "new"],
        ]
        kn = train_kneser_ney(corpus, vocab, order=2, cutoffs=(1, 1))
        katz = train_ngram_model(corpus, vocab, order=2, cutoffs=(1, 1))
        # Raw frequency makes 'francisco' the most likely unigram; its
        # continuation count (2 contexts) must demote it under KN.
        assert katz.prob("francisco") > katz.prob("new")
        assert kn.prob("francisco") < katz.prob("francisco")

    def test_perplexity_competitive(self):
        vocab, grammar, corpus = _corpus(seed=11, sentences=600)
        test = grammar.sample_corpus(60)
        kn = train_kneser_ney(corpus, vocab, order=3)
        katz = train_ngram_model(corpus, vocab, order=3, cutoffs=(1, 1, 2))
        # KN should be at least competitive with the plain estimator.
        assert kn.perplexity(test) < 1.3 * katz.perplexity(test)

    def test_order_one_rejected(self):
        vocab, _, corpus = _corpus()
        with pytest.raises(ValueError):
            train_kneser_ney(corpus, vocab, order=1)

    def test_graph_construction_and_decoding(self):
        """The KN model plugs into the whole stack unchanged."""
        vocab, grammar, corpus = _corpus(seed=7, vocab_size=12, sentences=150)
        model = train_kneser_ney(corpus, vocab, order=3, cutoffs=(1, 1, 1))
        graph = build_lm_graph(model)  # invariants checked inside
        assert graph.unigram_state == 0
        from repro.core import LmLookup

        lookup = LmLookup(graph)
        for word in vocab[:5]:
            result = lookup.resolve(graph.unigram_state, graph.word_id(word))
            assert result.weight == pytest.approx(
                -model.log_prob(word, ()), rel=1e-9
            )

    def test_empty_corpus_rejected(self):
        counts = NGramCounts.from_corpus([], 2)
        with pytest.raises(ValueError):
            KneserNeyModel(["a"], counts)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_kn_normalization_property(seed):
    vocab, _, corpus = _corpus(seed=seed, vocab_size=10, sentences=60)
    model = train_kneser_ney(corpus, vocab, order=3, cutoffs=(1, 1, 2))
    events = vocab + [SENTENCE_END]
    for k in range(model.order):
        for context in model.explicit_contexts(k):
            total = sum(model.prob(w, context) for w in events)
            assert total == pytest.approx(1.0, abs=1e-8)
