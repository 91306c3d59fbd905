"""Tests for vocabulary and corpus generation."""

import numpy as np
import pytest

from repro.lm import ReferenceGrammar, corpus_stats, make_vocabulary


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestVocabulary:
    def test_requested_count(self, rng):
        assert len(make_vocabulary(50, rng)) == 50

    def test_words_unique(self, rng):
        words = make_vocabulary(200, rng)
        assert len(set(words)) == 200

    def test_words_are_pronounceable_strings(self, rng):
        for word in make_vocabulary(30, rng):
            assert word.isalpha()
            assert 2 <= len(word) <= 9

    def test_deterministic_under_seed(self):
        a = make_vocabulary(20, np.random.default_rng(3))
        b = make_vocabulary(20, np.random.default_rng(3))
        assert a == b


class TestReferenceGrammar:
    def test_transitions_are_stochastic(self, rng):
        grammar = ReferenceGrammar.random(make_vocabulary(30, rng), rng)
        rows = grammar.transitions.sum(axis=1)
        assert np.allclose(rows, 1.0)

    def test_cannot_stop_immediately(self, rng):
        grammar = ReferenceGrammar.random(make_vocabulary(10, rng), rng)
        assert grammar.transitions[-1, -1] == 0.0

    def test_sentences_nonempty_and_bounded(self, rng):
        grammar = ReferenceGrammar.random(make_vocabulary(30, rng), rng)
        for _ in range(50):
            sentence = grammar.sample_sentence(max_len=12)
            assert 1 <= len(sentence) <= 12
            assert all(w in set(grammar.vocabulary) for w in sentence)

    def test_sampling_is_generator_choice_draw_for_draw(self):
        """The cached running sums pick what ``rng.choice(p=row)`` picks,
        also after the generator is swapped (the bench reseeds it) and
        after ``transitions`` is replaced."""

        def by_choice(grammar, rng, max_len=30):
            v = len(grammar.vocabulary)
            state, words = v, []
            while len(words) < max_len:
                state = int(rng.choice(v + 1, p=grammar.transitions[state]))
                if state == v:
                    break
                words.append(grammar.vocabulary[state])
            return words or [grammar.vocabulary[int(rng.integers(0, v))]]

        build = np.random.default_rng(3)
        grammar = ReferenceGrammar.random(make_vocabulary(80, build), build)
        other = ReferenceGrammar.random(grammar.vocabulary, build, branching=3)
        for seed, transitions in ((11, None), (12, None), (13, other.transitions)):
            if transitions is not None:
                grammar.transitions = transitions
            grammar.rng = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            for _ in range(200):
                assert grammar.sample_sentence() == by_choice(grammar, reference)
            # Both generators consumed the same number of draws.
            assert grammar.rng.random() == reference.random()

    def test_corpus_covers_vocabulary(self, rng):
        vocab = make_vocabulary(100, rng)
        grammar = ReferenceGrammar.random(vocab, rng, branching=3)
        corpus = grammar.sample_corpus(20)  # too few to cover naturally
        seen = {w for s in corpus for w in s}
        assert seen == set(vocab)

    def test_sparse_branching(self, rng):
        """Each word has few successors, so back-off will be exercised."""
        grammar = ReferenceGrammar.random(make_vocabulary(60, rng), rng, branching=4)
        support = (grammar.transitions[:-1, :-1] > 0).sum(axis=1)
        assert support.max() <= 4


class TestCorpusStats:
    def test_stats(self):
        stats = corpus_stats([["a", "b"], ["a"]])
        assert stats.num_sentences == 2
        assert stats.num_tokens == 3
        assert stats.vocabulary_size == 2
        assert stats.avg_sentence_len == pytest.approx(1.5)

    def test_empty(self):
        assert corpus_stats([]).avg_sentence_len == 0.0
