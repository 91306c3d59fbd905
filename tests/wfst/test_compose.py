"""Composition tests: hand-built cases plus brute-force equivalence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wfst import (
    EPSILON,
    Wfst,
    best_path_per_io,
    compose,
    compose_with_stats,
    enumerate_paths,
    linear_chain,
)


def _machine(num_states, arc_specs, finals=(0,), start=0):
    fst = Wfst()
    fst.add_states(num_states)
    fst.set_start(start)
    for src, ilabel, olabel, weight, dst in arc_specs:
        fst.add_arc(src, ilabel, olabel, weight, dst)
    for state in finals:
        fst.set_final(state)
    return fst


class TestBasicComposition:
    def test_single_arc_match(self):
        a = _machine(2, [(0, 1, 5, 0.5, 1)], finals=[1])
        b = _machine(2, [(0, 5, 9, 0.25, 1)], finals=[1])
        c = compose(a, b)
        paths = enumerate_paths(c)
        assert len(paths) == 1
        assert paths[0].ilabels == (1,)
        assert paths[0].olabels == (9,)
        assert paths[0].weight == pytest.approx(0.75)

    def test_label_mismatch_yields_empty(self):
        a = _machine(2, [(0, 1, 5, 0.0, 1)], finals=[1])
        b = _machine(2, [(0, 6, 9, 0.0, 1)], finals=[1])
        c = compose(a, b)
        assert enumerate_paths(c) == []

    def test_requires_start_states(self):
        a = Wfst()
        a.add_state()
        b = _machine(1, [])
        with pytest.raises(ValueError):
            compose(a, b)

    def test_epsilon_output_in_a_moves_alone(self):
        # a: eps-output arc then a real match.
        a = _machine(3, [(0, 7, EPSILON, 0.1, 1), (1, 8, 2, 0.2, 2)], finals=[2])
        b = _machine(2, [(0, 2, 3, 0.3, 1)], finals=[1])
        c = compose(a, b)
        paths = enumerate_paths(c)
        assert len(paths) == 1
        assert paths[0].ilabels == (7, 8)
        assert [o for o in paths[0].olabels if o != EPSILON] == [3]
        assert paths[0].weight == pytest.approx(0.6)

    def test_epsilon_input_in_b_moves_alone(self):
        a = _machine(2, [(0, 1, 2, 0.1, 1)], finals=[1])
        b = _machine(3, [(0, EPSILON, 5, 0.2, 1), (1, 2, 6, 0.3, 2)], finals=[2])
        c = compose(a, b)
        paths = enumerate_paths(c)
        assert len(paths) == 1
        assert [o for o in paths[0].olabels if o != EPSILON] == [5, 6]
        assert paths[0].weight == pytest.approx(0.6)

    def test_a_then_b_epsilons_both_taken(self):
        # Requires an a-side eps move followed by a b-side eps move.
        a = _machine(3, [(0, 7, EPSILON, 0.0, 1), (1, 8, 2, 0.0, 2)], finals=[2])
        b = _machine(3, [(0, EPSILON, 9, 0.0, 1), (1, 2, 3, 0.0, 2)], finals=[2])
        c = compose(a, b)
        assert len(enumerate_paths(c)) == 1

    def test_final_weights_multiply(self):
        a = _machine(2, [(0, 1, 5, 0.0, 1)], finals=[])
        a.set_final(1, 0.5)
        b = _machine(2, [(0, 5, 9, 0.0, 1)], finals=[])
        b.set_final(1, 0.25)
        c = compose(a, b)
        paths = enumerate_paths(c)
        assert paths[0].weight == pytest.approx(0.75)

    def test_max_states_guard(self):
        a = _machine(2, [(0, 1, 5, 0.0, 1), (0, 2, 5, 0.0, 1)], finals=[1])
        b = _machine(2, [(0, 5, 9, 0.0, 1)], finals=[1])
        with pytest.raises(MemoryError):
            compose(a, b, max_states=1)

    def test_stats_counted(self):
        a = _machine(2, [(0, 1, 5, 0.0, 1)], finals=[1])
        b = _machine(2, [(0, 5, 9, 0.0, 1)], finals=[1])
        _, stats = compose_with_stats(a, b)
        assert stats.states_visited >= 2
        assert stats.arcs_created == 1
        assert stats.match_lookups == 1


class TestPhiComposition:
    """Failure-arc (back-off) matching, Section 3.3 semantics."""

    PHI = 99

    def _lm(self):
        # State 0: unigram state, has arcs for words 1 and 2.
        # State 1: bigram state, has arc only for word 1, phi -> 0.
        lm = _machine(
            3,
            [
                (0, 1, 1, 1.0, 1),
                (0, 2, 2, 2.0, 1),
                (1, 1, 1, 0.5, 1),
                (1, self.PHI, EPSILON, 0.25, 0),
            ],
            finals=[1],
        )
        lm.set_final(0)
        return lm

    def test_direct_match_ignores_phi(self):
        a = linear_chain([(10, 1, 0.0), (10, 1, 0.0)])
        c = compose(a, self._lm(), phi_label=self.PHI)
        paths = enumerate_paths(c)
        assert len(paths) == 1
        # word 1 (unigram, 1.0) then word 1 (bigram at state 1, 0.5).
        assert paths[0].weight == pytest.approx(1.5)

    def test_backoff_taken_when_no_direct_match(self):
        a = linear_chain([(10, 1, 0.0), (10, 2, 0.0)])
        c = compose(a, self._lm(), phi_label=self.PHI)
        paths = enumerate_paths(c)
        assert len(paths) == 1
        # word 1 (1.0), then word 2 backs off (0.25) to unigram (2.0).
        assert paths[0].weight == pytest.approx(3.25)

    def test_backoff_arc_weighs_am_plus_lm_total(self):
        """A backed-off arc weighs ``a + (phis + direct)``, the sum the
        fully-composed decoder adds: ``(0.1 + 0.2) + 0.3`` would be one
        ulp more."""
        lm = _machine(
            2,
            [(0, 5, 5, 0.3, 0), (1, self.PHI, EPSILON, 0.2, 0)],
            finals=[0],
            start=1,
        )
        a = linear_chain([(10, 5, 0.1)])
        (path,) = enumerate_paths(compose(a, lm, phi_label=self.PHI))
        assert path.weight == 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3

    def test_unmatchable_word_pruned(self):
        a = linear_chain([(10, 7, 0.0)])
        c = compose(a, self._lm(), phi_label=self.PHI)
        assert enumerate_paths(c) == []

    def test_phi_traversals_counted(self):
        a = linear_chain([(10, 1, 0.0), (10, 2, 0.0)])
        _, stats = compose_with_stats(a, self._lm(), phi_label=self.PHI)
        assert stats.phi_traversals == 1

    def test_phi_cycle_terminates(self):
        lm = _machine(
            2,
            [(0, self.PHI, EPSILON, 0.1, 1), (1, self.PHI, EPSILON, 0.1, 0)],
            finals=[0],
        )
        a = linear_chain([(10, 3, 0.0)])
        c = compose(a, lm, phi_label=self.PHI)
        assert enumerate_paths(c) == []


# ----- property-based equivalence against brute force -------------------

_labels = st.integers(min_value=0, max_value=3)
_weights = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@st.composite
def small_transducer(draw, max_states=4, max_arcs=6):
    num_states = draw(st.integers(min_value=1, max_value=max_states))
    fst = Wfst()
    fst.add_states(num_states)
    fst.set_start(0)
    num_arcs = draw(st.integers(min_value=0, max_value=max_arcs))
    for _ in range(num_arcs):
        src = draw(st.integers(min_value=0, max_value=num_states - 1))
        dst = draw(st.integers(min_value=0, max_value=num_states - 1))
        fst.add_arc(src, draw(_labels), draw(_labels), draw(_weights), dst)
    finals = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_states - 1),
            min_size=1,
            max_size=num_states,
            unique=True,
        )
    )
    for state in finals:
        fst.set_final(state)
    return fst


#: Horizons of the brute-force check: operand paths of up to
#: ``_MAX_LENGTH`` arcs, and ``2 * _MAX_LENGTH`` for the composed machine
#: and for the operands' no-spurious-pairs pass.
_MAX_LENGTH = 4
#: Arc sequences from the start state (of up to ``2 * _MAX_LENGTH`` arcs)
#: a drawn operand may have.  ``enumerate_paths`` walks every one, so the
#: cap bounds each example's work; uncapped, one draw of cycles could
#: take minutes.
_MAX_WALKS = 10_000


def _walks(fst, max_length):
    """How many arc sequences of at most ``max_length`` arcs leave the
    start state: the number of prefixes ``enumerate_paths`` visits."""
    frontier = {fst.start: 1}
    total = 1
    for _ in range(max_length):
        following = {}
        for state, count in frontier.items():
            for arc in fst.out_arcs(state):
                following[arc.nextstate] = (
                    following.get(arc.nextstate, 0) + count
                )
        frontier = following
        total += sum(frontier.values())
    return total


_operands = small_transducer().filter(
    lambda fst: _walks(fst, 2 * _MAX_LENGTH) <= _MAX_WALKS
)


def _brute_force_composition(a, b, max_length):
    """Reference relation: min-weight over matching path pairs.

    A pair's weight is the sum of its halves', so pairing each side's
    best weight per io-pair gives the same minima as pairing the paths.
    """
    by_input = {}
    for (middle, out_b), weight_b in best_path_per_io(b, max_length).items():
        by_input.setdefault(middle, []).append((out_b, weight_b))
    best = {}
    for (in_a, middle), weight_a in best_path_per_io(a, max_length).items():
        for out_b, weight_b in by_input.get(middle, ()):
            key = (in_a, out_b)
            weight = weight_a + weight_b
            if weight < best.get(key, math.inf):
                best[key] = weight
    return best


@settings(max_examples=60, deadline=None)
@given(_operands, _operands)
def test_composition_matches_brute_force(a, b):
    """Composed best weights per io-pair equal the brute-forced relation.

    Restricted to short paths on operands with few of them
    (``_MAX_WALKS``); when the composed machine's enumeration still
    explodes, the example is skipped.
    """
    max_length = _MAX_LENGTH
    try:
        expected = _brute_force_composition(a, b, max_length)
        c = compose(a, b)
        got = best_path_per_io(c, max_length=2 * max_length)
    except MemoryError:
        return
    for key, weight in expected.items():
        assert key in got
        assert got[key] <= weight + 1e-9
    # And nothing spurious at shorter lengths: every composed pair must
    # correspond to some matching path pair (possibly longer than the
    # brute-force horizon, so only check keys with short sequences).
    try:
        longer = _brute_force_composition(a, b, 2 * max_length)
    except MemoryError:
        return
    for (ins, outs), weight in got.items():
        if len(ins) + len(outs) <= 2 and (ins, outs) in longer:
            assert weight >= longer[(ins, outs)] - 1e-9
