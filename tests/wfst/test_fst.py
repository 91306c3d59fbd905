"""Unit tests for the Wfst container and symbol tables."""

import dataclasses
import math
import pickle

import pytest

from repro.wfst import EPSILON, Arc, SymbolTable, Wfst, linear_chain


class TestSymbolTable:
    def test_epsilon_is_zero(self):
        table = SymbolTable()
        assert table.symbol_of(EPSILON) == "<eps>"
        assert table.id_of("<eps>") == 0

    def test_add_is_idempotent(self):
        table = SymbolTable()
        first = table.add("hello")
        second = table.add("hello")
        assert first == second

    def test_ids_are_dense(self):
        table = SymbolTable()
        ids = [table.add(w) for w in ("a", "b", "c")]
        assert ids == [1, 2, 3]
        assert len(table) == 4

    def test_round_trip(self):
        table = SymbolTable()
        table.add("word")
        assert table.symbol_of(table.id_of("word")) == "word"

    def test_contains(self):
        table = SymbolTable()
        table.add("x")
        assert "x" in table
        assert "y" not in table

    def test_iteration(self):
        table = SymbolTable()
        table.add("a")
        assert list(table) == [(0, "<eps>"), (1, "a")]


class TestWfst:
    def test_empty_machine(self):
        fst = Wfst()
        assert fst.num_states == 0
        assert fst.num_arcs == 0
        assert fst.start == -1

    def test_add_state_and_arcs(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 2, 0.5, s1)
        fst.set_final(s1, 0.25)
        assert fst.num_states == 2
        assert fst.num_arcs == 1
        arc = fst.out_arcs(s0)[0]
        assert (arc.ilabel, arc.olabel, arc.weight, arc.nextstate) == (1, 2, 0.5, 1)
        assert fst.final_weight(s1) == 0.25
        assert fst.final_weight(s0) == math.inf

    def test_invalid_state_rejected(self):
        fst = Wfst()
        fst.add_state()
        with pytest.raises(ValueError):
            fst.set_start(5)
        with pytest.raises(ValueError):
            fst.add_arc(0, 1, 1, 0.0, 7)

    def test_arcsort_by_ilabel(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.add_arc(s0, 3, 0, 0.0, s1)
        fst.add_arc(s0, 1, 0, 0.0, s1)
        fst.add_arc(s0, 2, 0, 0.0, s1)
        fst.arcsort("ilabel")
        assert [a.ilabel for a in fst.out_arcs(s0)] == [1, 2, 3]

    def test_arcsort_by_olabel(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.add_arc(s0, 0, 9, 0.0, s1)
        fst.add_arc(s0, 0, 4, 0.0, s1)
        fst.arcsort("olabel")
        assert [a.olabel for a in fst.out_arcs(s0)] == [4, 9]

    def test_arcsort_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            Wfst().arcsort("weight")

    def test_stats(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, EPSILON, 5, 0.0, s1)
        fst.add_arc(s0, 2, EPSILON, 0.0, s1)
        fst.set_final(s1)
        stats = fst.stats()
        assert stats.num_states == 2
        assert stats.num_arcs == 2
        assert stats.num_final == 1
        assert stats.num_epsilon_input == 1
        assert stats.num_epsilon_output == 1
        assert stats.max_out_degree == 2
        assert stats.avg_out_degree == 1.0

    def test_stats_empty(self):
        assert Wfst().stats().avg_out_degree == 0.0

    def test_copy_is_independent(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, 0.0, s1)
        fst.set_final(s1)
        clone = fst.copy()
        clone.add_arc(s0, 2, 2, 0.0, s1)
        clone.set_final(s0)
        assert fst.num_arcs == 1
        assert not fst.is_final(s0)

    def test_all_arcs_yields_sources(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.add_arc(s0, 1, 1, 0.0, s1)
        fst.add_arc(s1, 2, 2, 0.0, s0)
        sources = [src for src, _ in fst.all_arcs()]
        assert sources == [0, 1]


class TestArc:
    def test_slotted_arc_round_trips(self):
        """An ``Arc`` carries no instance ``__dict__``; ``replace``,
        pickling, equality and hashing work as on any frozen value."""
        arc = Arc(ilabel=3, olabel=EPSILON, weight=0.25, nextstate=7)
        assert not hasattr(arc, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            arc.weight = 1.0
        moved = dataclasses.replace(arc, nextstate=8)
        assert moved == Arc(3, EPSILON, 0.25, 8) and moved != arc
        copy = pickle.loads(pickle.dumps(arc))
        assert copy == arc and copy is not arc
        assert hash(copy) == hash(arc) == hash(Arc(3, EPSILON, 0.25, 7))
        assert len({arc, copy, moved}) == 2


class TestLinearChain:
    def test_chain_structure(self):
        chain = linear_chain([(1, 0, 0.5), (2, 7, 0.25)])
        assert chain.num_states == 3
        assert chain.num_arcs == 2
        assert chain.start == 0
        assert chain.is_final(2)

    def test_empty_chain_accepts_empty_string(self):
        chain = linear_chain([])
        assert chain.num_states == 1
        assert chain.is_final(chain.start)
