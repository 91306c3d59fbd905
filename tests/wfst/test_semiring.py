"""Semiring law tests (unit + property-based)."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.wfst.semiring import TROPICAL

weights = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)

semirings = st.sampled_from([TROPICAL])


class TestIdentities:
    def test_tropical_zero_is_plus_identity(self):
        assert TROPICAL.plus(TROPICAL.zero, 3.5) == 3.5

    def test_tropical_one_is_times_identity(self):
        assert TROPICAL.times(TROPICAL.one, 3.5) == 3.5

    def test_tropical_plus_is_min(self):
        assert TROPICAL.plus(2.0, 5.0) == 2.0

    def test_tropical_times_is_sum(self):
        assert TROPICAL.times(2.0, 5.0) == 7.0

    def test_zero_annihilates_times(self):
        assert TROPICAL.times(TROPICAL.zero, 1.0) == TROPICAL.zero

    def test_better_is_strict(self):
        assert TROPICAL.better(1.0, 2.0)
        assert not TROPICAL.better(2.0, 2.0)

    def test_approx_equal(self):
        assert TROPICAL.approx_equal(1.0, 1.0 + 1e-12)
        assert not TROPICAL.approx_equal(1.0, 1.1)
        assert TROPICAL.approx_equal(math.inf, math.inf)
        assert not TROPICAL.approx_equal(math.inf, 1.0)


class TestLaws:
    @given(semirings, weights, weights)
    def test_plus_commutative(self, sr, a, b):
        assert sr.approx_equal(sr.plus(a, b), sr.plus(b, a))

    @given(semirings, weights, weights, weights)
    def test_plus_associative(self, sr, a, b, c):
        left = sr.plus(sr.plus(a, b), c)
        right = sr.plus(a, sr.plus(b, c))
        assert sr.approx_equal(left, right, tol=1e-6)

    @given(semirings, weights, weights, weights)
    def test_times_associative(self, sr, a, b, c):
        left = sr.times(sr.times(a, b), c)
        right = sr.times(a, sr.times(b, c))
        assert sr.approx_equal(left, right, tol=1e-6)

    @given(semirings, weights)
    def test_identities_hold(self, sr, a):
        assert sr.plus(sr.zero, a) == a
        assert sr.times(sr.one, a) == a

    @given(weights, weights, weights)
    def test_tropical_distributes(self, a, b, c):
        sr = TROPICAL
        left = sr.times(a, sr.plus(b, c))
        right = sr.plus(sr.times(a, b), sr.times(a, c))
        assert sr.approx_equal(left, right, tol=1e-6)
