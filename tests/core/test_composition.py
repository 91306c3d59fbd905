"""Tests for the LM lookup engine and the Offset Lookup Table."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import LmLookup, LookupStats, LookupStrategy, OffsetLookupTable
from repro.lm import SENTENCE_END


@pytest.fixture
def lm(tiny_task):
    return tiny_task.lm


@pytest.fixture
def model(tiny_task):
    return tiny_task.ngram


def _lookup(lm, strategy, entries=1024):
    return LmLookup(lm, strategy=strategy, offset_table_entries=entries)


class TestOffsetLookupTable:
    def test_miss_then_hit(self):
        table = OffsetLookupTable(64)
        assert table.lookup(3, 7) is None
        table.insert(3, 7, 42)
        assert table.lookup(3, 7) == 42

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

    def test_export_format_is_three_full_columns(self):
        """The snapshot format session pickles and worker pipes carry:
        pinned keys, shapes and dtypes, whatever holds the entries."""
        table = OffsetLookupTable(16)
        table.insert(3, 7, 42)
        table.insert(9, 1, 5)
        state = table.export_state()
        assert sorted(state) == ["num_entries", "offsets", "tags", "valid"]
        assert state["num_entries"] == 16
        for name, dtype in (
            ("valid", np.bool_),
            ("tags", np.int64),
            ("offsets", np.int64),
        ):
            assert isinstance(state[name], np.ndarray), name
            assert state[name].shape == (16,), name
            assert state[name].dtype == dtype, name
        assert np.flatnonzero(state["valid"]).tolist() == sorted(
            [3 ^ 7, (9 ^ 1) & 15]
        )
        assert state["offsets"][3 ^ 7] == 42
        restored = OffsetLookupTable(16)
        restored.load_state(state)
        assert restored.lookup(3, 7) == 42
        assert restored.lookup(9, 1) == 5
        again = restored.export_state()
        for name in ("valid", "tags", "offsets"):
            assert np.array_equal(again[name], state[name]), name

    def test_loads_a_snapshot_with_stale_dead_slots(self):
        """A snapshot written by the column-backed table — stale tags
        and offsets left behind in invalid slots — restores the live
        entries only."""
        table = OffsetLookupTable(8)
        table.insert(2, 1, 11)
        index, tag = table._slot(2, 1)
        state = {
            "num_entries": 8,
            "valid": np.zeros(8, dtype=bool),
            "tags": np.full(8, 123, dtype=np.int64),
            "offsets": np.full(8, 77, dtype=np.int64),
        }
        state["valid"][index] = True
        state["tags"][index] = tag
        state["offsets"][index] = 11
        restored = OffsetLookupTable(8)
        restored.insert(5, 5, 1)  # replaced, not merged
        restored.load_state(state)
        assert restored.lookup(2, 1) == 11
        assert restored.lookup(5, 5) is None
        assert restored.export_state()["valid"].sum() == 1

    @pytest.mark.parametrize("column", ["valid", "tags", "offsets"])
    @pytest.mark.parametrize(
        "malformed",
        [
            lambda a: a[:-1],  # short
            lambda a: np.concatenate([a, a[:1]]),  # long
            lambda a: a.reshape(2, -1),  # wrong rank
            lambda a: a.tolist(),  # not an array
            lambda a: None,
        ],
    )
    def test_load_state_rejects_malformed_columns(self, column, malformed):
        table = OffsetLookupTable(8)
        table.insert(1, 2, 3)
        before = table.export_state()
        state = table.export_state()
        state[column] = malformed(state[column])
        with pytest.raises(ValueError):
            table.load_state(state)
        del state[column]
        with pytest.raises(ValueError):
            table.load_state(state)
        # A rejected snapshot leaves the table as it was.
        after = table.export_state()
        for name in ("valid", "tags", "offsets"):
            assert np.array_equal(after[name], before[name]), name
        assert table.lookup(1, 2) == 3


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
        linear = _lookup(lm, LookupStrategy.LINEAR)
        binary = _lookup(lm, LookupStrategy.BINARY)
        olt = _lookup(lm, LookupStrategy.OFFSET_TABLE)
        for state in range(lm.fst.num_states):
            for word in tiny_task.grammar.vocabulary[:6]:
                word_id = lm.word_id(word)
                arcs = [
                    engine.find_arc(state, word_id)
                    for engine in (linear, binary, olt)
                ]
                assert len({(a.ilabel, a.nextstate, a.weight) if a else None for a in arcs}) == 1

    def test_linear_costs_more_probes_than_binary(self, lm, tiny_task):
        linear = _lookup(lm, LookupStrategy.LINEAR)
        binary = _lookup(lm, LookupStrategy.BINARY)
        state = lm.unigram_state  # widest state: one arc per word
        for word in tiny_task.grammar.vocabulary:
            word_id = lm.word_id(word)
            linear.find_arc(state, word_id)
            binary.find_arc(state, word_id)
        assert linear.stats.arc_probes > binary.stats.arc_probes

    def test_offset_table_hits_on_repeats(self, lm, tiny_task):
        olt = _lookup(lm, LookupStrategy.OFFSET_TABLE)
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
        olt = _lookup(lm, LookupStrategy.OFFSET_TABLE)
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
        assert lookup.stats.preemptive_prunes >= 1

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
        assert lookup.stats.preemptive_prunes == 0

    def test_unknown_word_raises(self, lm):
        lookup = _lookup(lm, LookupStrategy.BINARY)
        missing = lm.words.add("zz-not-in-lm")
        with pytest.raises(LookupError):
            lookup.resolve(lm.unigram_state, missing)

    def test_sentence_end_not_a_word_arc(self, lm):
        """</s> lives in final weights, not arcs (build invariant)."""
        assert SENTENCE_END not in lm.words
