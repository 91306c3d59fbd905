"""Semirings for weighted finite-state transducers.

Speech decoders operate in the *tropical* semiring over negative
log-probabilities: ``plus`` is ``min`` (take the best path) and ``times``
is ``+`` (accumulate costs along a path).

Weights are plain Python floats.  ``float('inf')`` is the semiring zero
(an impossible path) and ``0.0`` is the semiring one (a free transition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring over float weights.

    Attributes:
        name: Human-readable identifier (``"tropical"``).
        zero: Additive identity; annihilates under ``times``.
        one: Multiplicative identity.
    """

    name: str
    zero: float = math.inf
    one: float = 0.0

    def plus(self, a: float, b: float) -> float:
        raise NotImplementedError

    def times(self, a: float, b: float) -> float:
        """Extend a path: accumulate costs (both semirings use addition)."""
        if a == math.inf or b == math.inf:
            return math.inf
        return a + b

    def better(self, a: float, b: float) -> bool:
        """True if ``a`` is strictly preferable to ``b`` (lower cost)."""
        return a < b

    def approx_equal(self, a: float, b: float, tol: float = 1e-9) -> bool:
        if a == b:
            return True
        if math.isinf(a) or math.isinf(b):
            return False
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TropicalSemiring(Semiring):
    """min/+ semiring: the Viterbi (best-path) semiring."""

    def __init__(self) -> None:
        super().__init__(name="tropical")

    def plus(self, a: float, b: float) -> float:
        return a if a <= b else b


TROPICAL = TropicalSemiring()
