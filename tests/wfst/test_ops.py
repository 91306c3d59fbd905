"""Tests for trimming, shortest paths and path enumeration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wfst import (
    Wfst,
    connect,
    coreachable_states,
    enumerate_paths,
    linear_chain,
    reachable_states,
    shortest_path,
)


def _diamond():
    """start -> {cheap, expensive} -> final."""
    fst = Wfst()
    s0, s1, s2, s3 = fst.add_states(4)
    fst.set_start(s0)
    fst.add_arc(s0, 1, 1, 1.0, s1)
    fst.add_arc(s0, 2, 2, 5.0, s2)
    fst.add_arc(s1, 3, 3, 1.0, s3)
    fst.add_arc(s2, 3, 3, 1.0, s3)
    fst.set_final(s3)
    return fst


class TestReachability:
    def test_reachable(self):
        fst = _diamond()
        orphan = fst.add_state()
        assert reachable_states(fst) == {0, 1, 2, 3}
        assert orphan not in reachable_states(fst)

    def test_coreachable(self):
        fst = _diamond()
        dead_end = fst.add_state()
        fst.add_arc(0, 9, 9, 0.0, dead_end)
        assert dead_end not in coreachable_states(fst)

    def test_reachable_empty_machine(self):
        assert reachable_states(Wfst()) == set()

    def test_connect_removes_useless_states(self):
        fst = _diamond()
        dead_end = fst.add_state()
        fst.add_arc(0, 9, 9, 0.0, dead_end)
        orphan = fst.add_state()
        fst.set_final(orphan)
        trimmed = connect(fst)
        assert trimmed.num_states == 4
        assert trimmed.num_arcs == 4
        assert shortest_path(trimmed).weight == shortest_path(fst).weight

    def test_connect_preserves_finals_weights(self):
        fst = linear_chain([(1, 1, 0.5)])
        fst.set_final(1, 0.75)
        trimmed = connect(fst)
        assert trimmed.final_weight(trimmed.num_states - 1) == 0.75


class TestShortestPath:
    def test_shortest_path_takes_cheap_branch(self):
        path = shortest_path(_diamond())
        assert path.ilabels == (1, 3)
        assert path.weight == pytest.approx(2.0)

    def test_no_final_means_no_path(self):
        fst = Wfst()
        fst.set_start(fst.add_state())
        assert shortest_path(fst) is None

    def test_final_weight_included(self):
        fst = _diamond()
        fst.set_final(3, 100.0)
        assert shortest_path(fst).weight == pytest.approx(102.0)

    def test_empty_machine(self):
        assert shortest_path(Wfst()) is None

    def test_cycle_handled(self):
        fst = Wfst()
        s0, s1 = fst.add_states(2)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, 1.0, s1)
        fst.add_arc(s1, 2, 2, 1.0, s0)  # cycle back
        fst.set_final(s1)
        assert shortest_path(fst).weight == pytest.approx(1.0)


class TestEnumeratePaths:
    def test_diamond_has_two_paths(self):
        paths = enumerate_paths(_diamond())
        assert len(paths) == 2
        assert {p.weight for p in paths} == {2.0, 6.0}

    def test_max_length_limits_cycles(self):
        fst = Wfst()
        s0 = fst.add_state()
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, 1.0, s0)
        fst.set_final(s0)
        paths = enumerate_paths(fst, max_length=3)
        assert sorted(len(p.ilabels) for p in paths) == [0, 1, 2, 3]

    def test_words_rendering(self):
        from repro.wfst import EPSILON, SymbolTable

        fst = linear_chain([(1, 1, 0.0), (2, EPSILON, 0.0)])
        table = SymbolTable()
        table.add("hello")
        fst.output_symbols = table
        paths = enumerate_paths(fst)
        assert paths[0].words(fst) == ["hello"]

    def test_words_without_table_stringifies(self):
        fst = linear_chain([(1, 3, 0.0)])
        assert enumerate_paths(fst)[0].words(fst) == ["3"]


@st.composite
def random_dag(draw):
    """A random acyclic machine (arcs only go forward)."""
    num_states = draw(st.integers(min_value=2, max_value=6))
    fst = Wfst()
    fst.add_states(num_states)
    fst.set_start(0)
    fst.set_final(num_states - 1)
    num_arcs = draw(st.integers(min_value=1, max_value=10))
    for _ in range(num_arcs):
        src = draw(st.integers(min_value=0, max_value=num_states - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=num_states - 1))
        weight = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        fst.add_arc(src, 1, 1, weight, dst)
    return fst


@settings(max_examples=100, deadline=None)
@given(random_dag())
def test_shortest_path_matches_enumeration(fst):
    """Dijkstra's answer equals the brute-force minimum over all paths."""
    paths = enumerate_paths(fst, max_length=10)
    best = shortest_path(fst)
    if not paths:
        assert best is None
    else:
        assert best.weight == pytest.approx(min(p.weight for p in paths))


@settings(max_examples=50, deadline=None)
@given(random_dag())
def test_connect_preserves_best_path(fst):
    trimmed = connect(fst)
    before = shortest_path(fst)
    after = shortest_path(trimmed)
    if before is None:
        assert after is None
    else:
        assert after.weight == pytest.approx(before.weight)
