"""Property tests tying the LM WFST to the n-gram model across seeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import LookupStrategy
from repro.core import LmLookup
from repro.lm import (
    SENTENCE_END,
    ReferenceGrammar,
    build_lm_graph,
    make_vocabulary,
    train_ngram_model,
)


def _random_lm(seed: int, order: int, vocab_size: int = 10):
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(vocab_size, rng)
    grammar = ReferenceGrammar.random(vocab, rng, branching=3)
    corpus = grammar.sample_corpus(60)
    model = train_ngram_model(corpus, vocab, order=order, cutoffs=(1, 1, 2, 2))
    return vocab, grammar, model, build_lm_graph(model)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_resolve_equals_model_probability(seed, order):
    """Back-off walks through the WFST reproduce the model exactly."""
    vocab, _, model, graph = _random_lm(seed, order)
    lookup = LmLookup(graph)
    states = list(range(graph.fst.num_states))
    for state in states[:: max(1, len(states) // 8)]:
        context = graph.context_of_state[state]
        for word in vocab[:4]:
            result = lookup.resolve(state, graph.word_id(word))
            assert result.weight == pytest.approx(
                -model.log_prob(word, context), rel=1e-9
            )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sentence_scoring_through_graph(seed):
    """Graph walk + final weight == model sentence score, any sentence."""
    vocab, grammar, model, graph = _random_lm(seed, order=3)
    lookup = LmLookup(graph)
    sentence = grammar.sample_sentence(max_len=6)
    state = graph.fst.start
    total = 0.0
    for word in sentence:
        result = lookup.resolve(state, graph.word_id(word))
        total += result.weight
        state = result.next_state
    total += graph.fst.final_weight(state)
    assert total == pytest.approx(-model.score_sentence(sentence), rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_strategies_agree_on_random_models(seed):
    """Traced under each strategy's lookup model, a walk resolves as
    the untraced one does, and every model's search finds the same
    unigram arc."""
    from tests.core.sinks import ModelSink

    vocab, _, _, graph = _random_lm(seed, order=3)
    sinks = [ModelSink(graph, s, table_entries=256) for s in LookupStrategy]
    engines = [LmLookup(graph, sink=sink) for sink in sinks]
    plain = LmLookup(graph)
    for word in vocab[:5]:
        word_id = graph.word_id(word)
        want = plain.resolve(graph.unigram_state, word_id)
        for engine in engines:
            assert engine.resolve(graph.unigram_state, word_id) == want
        ordinals = {
            sink.model.search(graph.unigram_state, word_id) for sink in sinks
        }
        assert len(ordinals) == 1 and -1 not in ordinals


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sentence_end_always_final(seed):
    """Every LM state can terminate a sentence (</s> backs off to unigram)."""
    _, _, model, graph = _random_lm(seed, order=3)
    del model
    import math

    for state in range(graph.fst.num_states):
        assert math.isfinite(graph.fst.final_weight(state))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pack_round_trip_random_models(seed):
    """The LM bit format survives arbitrary trained models."""
    from repro.compress import pack_lm, unpack_lm

    _, _, _, graph = _random_lm(seed, order=3)
    packed = pack_lm(graph)
    restored = unpack_lm(packed)
    assert restored.num_states == graph.fst.num_states
    assert restored.num_arcs == graph.fst.num_arcs
    # Spot-check: unigram fan-out preserved.
    assert len(restored.out_arcs(0)) == len(graph.fst.out_arcs(0))


def test_sentence_end_not_in_word_arcs_anywhere():
    _, _, _, graph = _random_lm(7, order=3)
    assert SENTENCE_END not in graph.words
