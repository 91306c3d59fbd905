"""Tests for the LM lookup engine and the Offset Lookup Table."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LmLookup,
    LookupStats,
    LookupStrategy,
    NullSink,
    OffsetLookupTable,
)
from repro.lm import SENTENCE_END


@pytest.fixture
def lm(tiny_task):
    return tiny_task.lm


@pytest.fixture
def model(tiny_task):
    return tiny_task.ngram


def _lookup(lm, strategy, entries=1024):
    return LmLookup(lm, strategy=strategy, offset_table_entries=entries)


def _model(lm, strategy):
    """A traced lookup: only its walk models the OLT and the probes."""
    return LmLookup(
        lm, strategy=strategy, offset_table_entries=1024, sink=NullSink()
    )


class TestOffsetLookupTable:
    def test_miss_then_hit(self):
        table = OffsetLookupTable(64)
        assert table.lookup(3, 7) is None
        table.insert(3, 7, 42)
        assert table.lookup(3, 7) == 42
        # Indexed by state XOR word (Section 3.5).
        assert list(table._entries) == [3 ^ 7]

    @pytest.mark.parametrize("num_entries", [1, 2, 4, 16, 1024, 32 * 1024])
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 7),
                st.integers(0, 7),
                st.integers(0, (1 << 23) - 1),
            ),
            max_size=60,
        )
    )
    def test_is_direct_mapped(self, num_entries, ops):
        """One entry per ``(state XOR word) mod entries`` slot, and the
        last insert wins it: a lookup finds its own pair's ordinal while
        no other pair has taken the slot since, misses on an empty slot,
        and otherwise misses or — another pair aliasing it on index and
        tag — returns that pair's ordinal, which the caller validates."""
        table = OffsetLookupTable(num_entries)
        slots = {}  # slot -> (state, word, ordinal) of its last insert
        for insert, state, word, ordinal in ops:
            slot = (state ^ word) % num_entries
            if insert:
                table.insert(state, word, ordinal)
                assert table.lookup(state, word) == ordinal
                slots[slot] = (state, word, ordinal)
                continue
            got = table.lookup(state, word)
            last = slots.get(slot)
            if last is None:
                assert got is None
            elif last[:2] == (state, word):
                assert got == last[2]
            else:
                assert got in (None, last[2])
        assert len(table._entries) == len(slots) <= num_entries

    def test_direct_mapped_eviction(self):
        table = OffsetLookupTable(1)  # every key maps to slot 0
        table.insert(0, 1, 10)
        table.insert(2, 3, 20)
        assert table.lookup(0, 1) is None or table.lookup(0, 1) != 10

    def test_invalidate(self):
        table = OffsetLookupTable(16)
        table.insert(1, 1, 5)
        table.invalidate()
        assert table.lookup(1, 1) is None

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            OffsetLookupTable(48)

    def test_size_bytes_matches_paper_configuration(self):
        # Section 3.5: 32K entries require 192 KB.
        table = OffsetLookupTable(32 * 1024)
        assert table.size_bytes == 192 * 1024


def test_lookup_stats_delta_covers_every_counter():
    """Per-utterance deltas (``decode``, ``StreamingSession.finish``)
    are a clone and a ``since``: a counter either one skipped would
    silently read zero in every result."""
    names = [f.name for f in dataclasses.fields(LookupStats)]
    before = LookupStats(**{name: 3 + i for i, name in enumerate(names)})
    now = LookupStats(**{name: 1000 + i * i for i, name in enumerate(names)})
    baseline = before.clone()
    before.lookups += 1  # the clone is independent of the live object
    delta = now.since(baseline)
    for i, name in enumerate(names):
        assert getattr(baseline, name) == 3 + i, name
        assert getattr(delta, name) == 1000 + i * i - (3 + i), name


class TestStrategiesAgree:
    def test_all_strategies_find_same_arcs(self, lm, tiny_task):
        linear = _model(lm, LookupStrategy.LINEAR)
        binary = _model(lm, LookupStrategy.BINARY)
        olt = _model(lm, LookupStrategy.OFFSET_TABLE)
        for state in range(lm.fst.num_states):
            for word in tiny_task.grammar.vocabulary[:6]:
                word_id = lm.word_id(word)
                arcs = [
                    engine.find_arc(state, word_id)
                    for engine in (linear, binary, olt)
                ]
                assert len({(a.ilabel, a.nextstate, a.weight) if a else None for a in arcs}) == 1

    def test_linear_costs_more_probes_than_binary(self, lm, tiny_task):
        linear = _model(lm, LookupStrategy.LINEAR)
        binary = _model(lm, LookupStrategy.BINARY)
        state = lm.unigram_state  # widest state: one arc per word
        for word in tiny_task.grammar.vocabulary:
            word_id = lm.word_id(word)
            linear.find_arc(state, word_id)
            binary.find_arc(state, word_id)
        assert linear.stats.arc_probes > binary.stats.arc_probes

    def test_offset_table_hits_on_repeats(self, lm, tiny_task):
        olt = _model(lm, LookupStrategy.OFFSET_TABLE)
        state = lm.unigram_state
        word_id = lm.word_id(tiny_task.grammar.vocabulary[0])
        olt.find_arc(state, word_id)
        first_probes = olt.stats.arc_probes
        olt.find_arc(state, word_id)
        assert olt.stats.olt_hits == 1
        assert olt.stats.olt_misses == 1
        # A hit costs exactly one validating arc fetch.
        assert olt.stats.arc_probes == first_probes + 1

    def test_hit_ratio_property(self, lm, tiny_task):
        olt = _model(lm, LookupStrategy.OFFSET_TABLE)
        state = lm.unigram_state
        for _ in range(9):
            olt.find_arc(state, lm.word_id(tiny_task.grammar.vocabulary[1]))
        assert olt.stats.olt_hit_ratio == pytest.approx(8 / 9)


class TestResolve:
    def test_resolve_weight_equals_model_log_prob(self, lm, model, tiny_task):
        """The back-off walk reproduces the n-gram model exactly."""
        lookup = _lookup(lm, LookupStrategy.BINARY)
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
        lookup = _lookup(lm, LookupStrategy.BINARY)
        for word in tiny_task.grammar.vocabulary[:5]:
            result = lookup.resolve(lm.unigram_state, lm.word_id(word))
            context = lm.context_of_state[result.next_state]
            assert context == () or context[-1] == word

    def test_backoff_levels_counted(self, lm, model, tiny_task):
        lookup = _lookup(lm, LookupStrategy.BINARY)
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
        lookup = _lookup(lm, LookupStrategy.BINARY)
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
        lookup = _lookup(lm, LookupStrategy.BINARY)
        for word in tiny_task.grammar.vocabulary[:5]:
            result = lookup.resolve(
                lm.unigram_state,
                lm.word_id(word),
                threshold=math.inf,
                preemptive=True,
            )
            assert not result.pruned

    def test_unknown_word_raises(self, lm):
        lookup = _lookup(lm, LookupStrategy.BINARY)
        missing = lm.words.add("zz-not-in-lm")
        with pytest.raises(LookupError):
            lookup.resolve(lm.unigram_state, missing)

    def test_sentence_end_not_a_word_arc(self, lm):
        """</s> lives in final weights, not arcs (build invariant)."""
        assert SENTENCE_END not in lm.words
