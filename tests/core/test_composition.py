"""Tests for the LM lookup engine."""

import math

import pytest

from repro.core import LmLookup
from repro.lm import SENTENCE_END


@pytest.fixture
def lm(tiny_task):
    return tiny_task.lm


@pytest.fixture
def model(tiny_task):
    return tiny_task.ngram


class TestResolve:
    def test_resolve_weight_equals_model_log_prob(self, lm, model, tiny_task):
        """The back-off walk reproduces the n-gram model exactly."""
        lookup = LmLookup(lm)
        for state in range(lm.fst.num_states):
            context = lm.context_of_state[state]
            for word in tiny_task.grammar.vocabulary:
                result = lookup.resolve(state, lm.word_id(word))
                expected = -model.log_prob(word, context)
                assert result.weight == pytest.approx(expected, rel=1e-9), (
                    context,
                    word,
                )

    def test_resolve_destination_has_matching_history(self, lm, tiny_task):
        lookup = LmLookup(lm)
        for word in tiny_task.grammar.vocabulary[:5]:
            result = lookup.resolve(lm.unigram_state, lm.word_id(word))
            context = lm.context_of_state[result.next_state]
            assert context == () or context[-1] == word

    def test_backoff_levels_counted(self, lm, model, tiny_task):
        lookup = LmLookup(lm)
        # Find some (state, word) needing back-off: a trigram state and a
        # word with no explicit trigram there.
        found = False
        for state in range(lm.fst.num_states):
            if lm.state_level(state) < 1:
                continue
            context = lm.context_of_state[state]
            for word in tiny_task.grammar.vocabulary:
                if not model.has_context(context) or word in model._explicit[
                    len(context)
                ].get(context, {}):
                    continue
                result = lookup.resolve(state, lm.word_id(word))
                assert result.backoff_levels >= 1
                found = True
                break
            if found:
                break
        assert found, "task too small to exercise back-off"

    def test_preemptive_prune_fires_with_tight_threshold(self, lm, model, tiny_task):
        lookup = LmLookup(lm)
        pruned_any = False
        for state in range(lm.fst.num_states):
            if lm.state_level(state) == 0:
                continue
            for word in tiny_task.grammar.vocabulary:
                result = lookup.resolve(
                    state,
                    lm.word_id(word),
                    entry_cost=0.0,
                    threshold=1e-6,
                    preemptive=True,
                )
                if result.pruned:
                    pruned_any = True
                    break
            if pruned_any:
                break
        assert pruned_any

    def test_preemptive_prune_never_fires_with_loose_threshold(
        self, lm, tiny_task
    ):
        lookup = LmLookup(lm)
        for word in tiny_task.grammar.vocabulary[:5]:
            result = lookup.resolve(
                lm.unigram_state,
                lm.word_id(word),
                threshold=math.inf,
                preemptive=True,
            )
            assert not result.pruned

    def test_unknown_word_raises(self, lm):
        lookup = LmLookup(lm)
        missing = lm.words.add("zz-not-in-lm")
        with pytest.raises(LookupError):
            lookup.resolve(lm.unigram_state, missing)

    def test_sentence_end_not_a_word_arc(self, lm):
        """</s> lives in final weights, not arcs (build invariant)."""
        assert SENTENCE_END not in lm.words
