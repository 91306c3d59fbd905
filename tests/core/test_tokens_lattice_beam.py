"""Unit tests for tokens, lattice and beam pruning."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    COMPACT_RECORD_BYTES,
    RAW_RECORD_BYTES,
    BeamConfig,
    TokenTable,
    WordLattice,
)
from repro.core.beam import prune_items
from repro.core.tokens import pack_key, unpack_key


class TestTokenTable:
    def test_insert_new(self):
        table = TokenTable()
        assert table.insert(1, 2, 5.0, -1)
        assert len(table) == 1
        assert table.best_cost == 5.0

    def test_viterbi_recombination_keeps_better(self):
        table = TokenTable()
        table.insert(1, 2, 5.0, -1)
        assert not table.insert(1, 2, 6.0, 7)  # worse: dropped
        assert table.cost[pack_key(1, 2)] == 5.0
        assert table.node[pack_key(1, 2)] == -1
        assert table.recombinations == 1

    def test_improvement_updates_in_place(self):
        table = TokenTable()
        table.insert(1, 2, 5.0, -1)
        table.insert(4, 4, 6.0, -1)
        assert table.insert(1, 2, 3.0, 9)
        # Same entry, same place in the table; new cost and node.
        assert list(table.cost) == [pack_key(1, 2), pack_key(4, 4)]
        assert table.cost[pack_key(1, 2)] == 3.0
        assert table.node[pack_key(1, 2)] == 9
        assert table.improvements == 1

    def test_distinct_lm_states_do_not_collide(self):
        table = TokenTable()
        table.insert(1, 2, 5.0, -1)
        table.insert(1, 3, 6.0, -1)
        assert len(table) == 2

    def test_best_cost_tracks_minimum(self):
        table = TokenTable()
        table.insert(1, 1, 5.0, -1)
        table.insert(2, 2, 3.0, -1)
        table.insert(3, 3, 8.0, -1)
        assert table.best_cost == 3.0

    def test_survivors(self):
        table = TokenTable()
        table.insert(1, 1, 1.0, -1)
        table.insert(2, 2, 5.0, -1)
        assert table.survivor_items(2.0) == [(pack_key(1, 1), 1.0, -1)]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_table_holds_minimum_per_key(self, inserts):
        table = TokenTable()
        best = {}
        for am, lm, cost in inserts:
            table.insert(am, lm, cost, -1)
            key = (am, lm)
            best[key] = min(best.get(key, math.inf), cost)
        assert {unpack_key(k): c for k, c in table.cost.items()} == best
        assert table.best_cost == min(best.values())


class TestWordLattice:
    def test_backtrace_chain(self):
        lattice = WordLattice()
        a = lattice.add(5, 10, 1.0, -1)
        b = lattice.add(7, 20, 2.0, a)
        c = lattice.add(9, 30, 3.0, b)
        assert lattice.backtrace(c) == [5, 7, 9]
        assert lattice.depth(c) == 3

    def test_backtrace_root(self):
        lattice = WordLattice()
        assert lattice.backtrace(-1) == []

    def test_dangling_backpointer_rejected(self):
        lattice = WordLattice()
        with pytest.raises(ValueError):
            lattice.add(1, 1, 1.0, 5)

    def test_shared_prefixes(self):
        lattice = WordLattice()
        a = lattice.add(5, 10, 1.0, -1)
        b1 = lattice.add(7, 20, 2.0, a)
        b2 = lattice.add(8, 20, 2.5, a)
        assert lattice.backtrace(b1) == [5, 7]
        assert lattice.backtrace(b2) == [5, 8]
        assert len(lattice) == 3

    def test_size_accounting(self):
        # The compact layout (Section 3.1) is the smaller record.
        assert COMPACT_RECORD_BYTES < RAW_RECORD_BYTES


class TestBeam:
    def _table(self, costs):
        table = TokenTable()
        for i, cost in enumerate(costs):
            table.insert(i, 0, cost, -1)
        return table

    def test_beam_keeps_within_margin(self):
        table = self._table([1.0, 5.0, 20.0])
        survivors, pruned = prune_items(table, BeamConfig(beam=10.0))
        assert {cost for _, cost, _ in survivors} == {1.0, 5.0}
        assert pruned == 1

    def test_empty_table(self):
        survivors, pruned = prune_items(TokenTable(), BeamConfig(beam=10.0))
        assert survivors == []
        assert pruned == 0

    def test_max_active_caps_survivors(self):
        table = self._table([1.0, 2.0, 3.0, 4.0])
        survivors, pruned = prune_items(
            table, BeamConfig(beam=100.0, max_active=2)
        )
        assert sorted(cost for _, cost, _ in survivors) == [1.0, 2.0]
        assert pruned == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BeamConfig(beam=0.0)
        with pytest.raises(ValueError):
            BeamConfig(beam=1.0, max_active=-1)
