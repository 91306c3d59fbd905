"""Tokens and per-frame token tables.

A *token* is one search hypothesis: a pair of states — one in the AM
graph, one in the LM graph (Figure 3c's ``(am, lm)`` nodes) — plus the
accumulated path cost and a back-pointer into the word lattice.

The decoder keeps two token tables, one for the frame being consumed
and one being filled for the next frame, mirroring the accelerator's
two hash tables (Figure 4).  Recombination is Viterbi: inserting a
token that collides with a better one is a no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class Token:
    """One active hypothesis."""

    am_state: int
    lm_state: int
    cost: float
    lattice_node: int = -1

    @property
    def key(self) -> tuple[int, int]:
        return (self.am_state, self.lm_state)


@dataclass
class TokenTable:
    """Best-cost token per (am_state, lm_state) pair.

    Tracks the running best cost so beam thresholds are available
    without a separate pass.
    """

    tokens: dict[tuple[int, int], Token] = field(default_factory=dict)
    best_cost: float = math.inf
    inserts: int = 0
    improvements: int = 0
    recombinations: int = 0

    def insert(
        self, am_state: int, lm_state: int, cost: float, lattice_node: int
    ) -> bool:
        """Insert or Viterbi-recombine; returns True if the token survives."""
        key = (am_state, lm_state)
        existing = self.tokens.get(key)
        if existing is None:
            self.tokens[key] = Token(am_state, lm_state, cost, lattice_node)
            self.inserts += 1
        elif cost < existing.cost:
            existing.cost = cost
            existing.lattice_node = lattice_node
            self.improvements += 1
        else:
            self.recombinations += 1
            return False
        if cost < self.best_cost:
            self.best_cost = cost
        return True

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens.values())

    def clear(self) -> None:
        self.tokens.clear()
        self.best_cost = math.inf
        self.inserts = 0
        self.improvements = 0
        self.recombinations = 0

    def survivors(self, threshold: float) -> list[Token]:
        """Tokens whose cost beats ``threshold`` (beam pruning)."""
        return [t for t in self.tokens.values() if t.cost <= threshold]

    def columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frontier as (am, lm, cost, lattice_node) arrays."""
        tokens = list(self.tokens.values())
        return (
            np.array([t.am_state for t in tokens], dtype=np.int64),
            np.array([t.lm_state for t in tokens], dtype=np.int64),
            np.array([t.cost for t in tokens], dtype=np.float64),
            np.array([t.lattice_node for t in tokens], dtype=np.int64),
        )


_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=np.float64)


class _LazyTokenMap:
    """Dict-of-Token facade over a :class:`SoaTokenTable`.

    Exposes the subset of the ``TokenTable.tokens`` mapping interface
    the epsilon phase uses, creating :class:`Token` objects only for
    the keys actually touched (identity-stable per key).
    """

    __slots__ = ("_table",)

    def __init__(self, table: "SoaTokenTable") -> None:
        self._table = table

    def get(self, key: tuple[int, int], default=None):
        table = self._table
        packed = key[0] * table.num_lm + key[1]
        slot = table.find_slot(packed)
        if slot is None:
            return default
        return table.materialize(packed, slot)

    def __getitem__(self, key: tuple[int, int]) -> Token:
        table = self._table
        packed = key[0] * table.num_lm + key[1]
        slot = table.find_slot(packed)
        if slot is None:
            raise KeyError(key)
        return table.materialize(packed, slot)

    def __len__(self) -> int:
        return len(self._table)

    def values(self):
        table = self._table
        num_lm = table.num_lm
        base_am = table._base_am
        for slot, (am, lm) in enumerate(
            zip(base_am.tolist(), table._base_lm.tolist())
        ):
            yield table.materialize(am * num_lm + lm, slot)
        base_size = base_am.shape[0]
        for index, am in enumerate(table._extra_am):
            yield table.materialize(
                am * num_lm + table._extra_lm[index], base_size + index
            )


class SoaTokenTable:
    """Token table storing the frontier as structure-of-arrays columns.

    The vectorized decoder fills a frame's table in one shot
    (:meth:`bulk_fill`) from the emitting expansion's winner arrays;
    the epsilon phase then mutates it through the same
    ``insert``/``tokens`` interface as :class:`TokenTable`, with
    identical semantics and counters.  Token objects are materialized
    lazily — most frontier entries are only ever read back as arrays by
    the next frame's expansion, and building thousands of objects per
    frame would cost more than the bulk math saves.

    Keys are packed as ``am_state * num_lm + lm_state``.
    """

    def __init__(self, num_lm: int) -> None:
        self.num_lm = num_lm
        self.best_cost = math.inf
        self.inserts = 0
        self.improvements = 0
        self.recombinations = 0
        # Winners of the bulk emitting expansion, as numpy columns...
        self._base_am = _EMPTY_INT
        self._base_lm = _EMPTY_INT
        self._base_cost = _EMPTY_FLOAT
        self._base_node = _EMPTY_INT
        # ...plus scalar arrivals from the epsilon phase.
        self._extra_am: list[int] = []
        self._extra_lm: list[int] = []
        self._extra_cost: list[float] = []
        self._extra_node: list[int] = []
        # Key -> slot: bulk winners are found by binary search over
        # their sorted keys (building a per-frame dict costs more than
        # the handful of epsilon-phase lookups it would serve); epsilon
        # arrivals land in a small dict.
        self._sorted_keys = _EMPTY_INT
        self._slot_for_sorted = _EMPTY_INT
        self._extra_slot: dict[int, int] = {}
        self._materialized: dict[int, Token] = {}
        self.tokens = _LazyTokenMap(self)

    def bulk_fill(
        self,
        am_states: np.ndarray,
        lm_states: np.ndarray,
        costs: np.ndarray,
        nodes: np.ndarray,
        sorted_keys: np.ndarray,
        slots: np.ndarray,
        improvements: int,
        recombinations: int,
    ) -> None:
        """Install the winners of a vectorized emitting expansion.

        Must be called on an empty table.  Winners arrive in
        first-arrival order of their packed keys, so iteration matches
        the sequential decoder's dict insertion order exactly;
        ``sorted_keys``/``slots`` index them for point lookups.
        """
        self._base_am = am_states
        self._base_lm = lm_states
        self._base_cost = costs
        self._base_node = nodes
        self._sorted_keys = sorted_keys
        self._slot_for_sorted = slots
        self.inserts = am_states.shape[0]
        self.improvements = improvements
        self.recombinations = recombinations
        if am_states.shape[0]:
            self.best_cost = float(costs.min())

    @classmethod
    def from_columns(
        cls,
        num_lm: int,
        am_states: np.ndarray,
        lm_states: np.ndarray,
        costs: np.ndarray,
        nodes: np.ndarray,
    ) -> "SoaTokenTable":
        """A table holding exactly these tokens, in this iteration order.

        For a frontier that no bulk expansion produced (a restored
        snapshot).  Contents, order and ``best_cost`` carry over; the
        insert counters of the frame that built the frontier do not
        (that frame has already been accounted).
        """
        table = cls(num_lm)
        if am_states.shape[0]:
            keys = am_states * np.int64(num_lm) + lm_states
            order = np.argsort(keys)
            table.bulk_fill(
                am_states, lm_states, costs, nodes, keys[order], order, 0, 0
            )
        return table

    def survivors(self, threshold: float) -> list[Token]:
        """Same contract as :meth:`TokenTable.survivors` (fresh Tokens:
        the scalar expansion only reads them)."""
        am, lm, cost, node = self.columns()
        return [
            Token(a, l, c, n)
            for a, l, c, n in zip(
                am.tolist(), lm.tolist(), cost.tolist(), node.tolist()
            )
            if c <= threshold
        ]

    def find_slot(self, key: int) -> int | None:
        """Slot of a packed key, or None when absent."""
        sorted_keys = self._sorted_keys
        size = sorted_keys.shape[0]
        if size:
            pos = int(np.searchsorted(sorted_keys, key))
            if pos < size and sorted_keys[pos] == key:
                return int(self._slot_for_sorted[pos])
        return self._extra_slot.get(key)

    def insert(
        self, am_state: int, lm_state: int, cost: float, lattice_node: int
    ) -> bool:
        """Same contract as :meth:`TokenTable.insert`."""
        key = am_state * self.num_lm + lm_state
        slot = self.find_slot(key)
        if slot is None:
            self._extra_slot[key] = self._base_am.shape[0] + len(
                self._extra_am
            )
            self._extra_am.append(am_state)
            self._extra_lm.append(lm_state)
            self._extra_cost.append(cost)
            self._extra_node.append(lattice_node)
            self.inserts += 1
        else:
            base_size = self._base_am.shape[0]
            if slot < base_size:
                current = self._base_cost[slot]
            else:
                current = self._extra_cost[slot - base_size]
            if cost < current:
                if slot < base_size:
                    self._base_cost[slot] = cost
                    self._base_node[slot] = lattice_node
                else:
                    self._extra_cost[slot - base_size] = cost
                    self._extra_node[slot - base_size] = lattice_node
                token = self._materialized.get(key)
                if token is not None:
                    token.cost = cost
                    token.lattice_node = lattice_node
                self.improvements += 1
            else:
                self.recombinations += 1
                return False
        if cost < self.best_cost:
            self.best_cost = cost
        return True

    def materialize(self, key: int, slot: int) -> Token:
        """The (identity-stable) Token object for an occupied slot."""
        token = self._materialized.get(key)
        if token is None:
            base_size = self._base_am.shape[0]
            if slot < base_size:
                token = Token(
                    int(self._base_am[slot]),
                    int(self._base_lm[slot]),
                    float(self._base_cost[slot]),
                    int(self._base_node[slot]),
                )
            else:
                index = slot - base_size
                token = Token(
                    self._extra_am[index],
                    self._extra_lm[index],
                    self._extra_cost[index],
                    self._extra_node[index],
                )
            self._materialized[key] = token
        return token

    def epsilon_seeds(self, has_epsilon: np.ndarray) -> list[Token]:
        """Tokens whose AM state has epsilon out-arcs, in table order.

        ``has_epsilon`` is a per-AM-state boolean array.  Matches the
        scalar path's ``[t for t in table if epsilon[t.am_state]]``
        without materializing the whole frontier.
        """
        num_lm = self.num_lm
        seeds = []
        base_am = self._base_am
        materialized = self._materialized
        if base_am.shape[0]:
            picked = np.flatnonzero(has_epsilon[base_am])
            if picked.shape[0]:
                for am, lm, cost, node in zip(
                    base_am[picked].tolist(),
                    self._base_lm[picked].tolist(),
                    self._base_cost[picked].tolist(),
                    self._base_node[picked].tolist(),
                ):
                    key = am * num_lm + lm
                    token = materialized.get(key)
                    if token is None:
                        token = Token(am, lm, cost, node)
                        materialized[key] = token
                    seeds.append(token)
        base_size = base_am.shape[0]
        for index, am_state in enumerate(self._extra_am):
            if has_epsilon[am_state]:
                key = am_state * num_lm + self._extra_lm[index]
                seeds.append(self.materialize(key, base_size + index))
        return seeds

    def base_slot_hints(self, keys: list[int]) -> list[int]:
        """Bulk-winner slot of each packed key, -1 where absent.

        One vectorized binary search replacing a per-insert
        ``searchsorted``; valid as long as no ``bulk_fill`` intervenes
        (the sorted base index is static after it).  Native lists in
        and out: the caller hands the hints to :meth:`insert_hinted`
        one by one.  Keys that all lie below or above the bulk winners'
        need no search — the usual frame: epsilon arcs lead to the
        word-boundary state, where no emitting arc does.
        """
        sorted_keys = self._sorted_keys
        size = sorted_keys.shape[0]
        if (
            size == 0
            or max(keys) < sorted_keys[0]
            or min(keys) > sorted_keys[size - 1]
        ):
            return [-1] * len(keys)
        wanted = np.array(keys, dtype=np.int64)
        pos = np.searchsorted(sorted_keys, wanted)
        np.minimum(pos, size - 1, out=pos)
        return np.where(
            sorted_keys[pos] == wanted, self._slot_for_sorted[pos], -1
        ).tolist()

    def insert_hinted(
        self,
        am_state: int,
        lm_state: int,
        cost: float,
        lattice_node: int,
        base_slot: int,
    ) -> bool:
        """:meth:`insert` with the base-index search precomputed.

        ``base_slot`` is the key's entry from :meth:`base_slot_hints`
        (-1 when the key is not among the bulk winners); epsilon-phase
        arrivals are still looked up in the side dict.
        """
        key = am_state * self.num_lm + lm_state
        slot = base_slot if base_slot >= 0 else self._extra_slot.get(key)
        if slot is None:
            self._extra_slot[key] = self._base_am.shape[0] + len(
                self._extra_am
            )
            self._extra_am.append(am_state)
            self._extra_lm.append(lm_state)
            self._extra_cost.append(cost)
            self._extra_node.append(lattice_node)
            self.inserts += 1
        else:
            base_size = self._base_am.shape[0]
            if slot < base_size:
                current = self._base_cost[slot]
            else:
                current = self._extra_cost[slot - base_size]
            if cost < current:
                if slot < base_size:
                    self._base_cost[slot] = cost
                    self._base_node[slot] = lattice_node
                else:
                    self._extra_cost[slot - base_size] = cost
                    self._extra_node[slot - base_size] = lattice_node
                token = self._materialized.get(key)
                if token is not None:
                    token.cost = cost
                    token.lattice_node = lattice_node
                self.improvements += 1
            else:
                self.recombinations += 1
                return False
        if cost < self.best_cost:
            self.best_cost = cost
        return True

    def columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frontier as (am, lm, cost, lattice_node) arrays."""
        if not self._extra_am:
            return self._base_am, self._base_lm, self._base_cost, self._base_node
        return (
            np.concatenate(
                [self._base_am, np.array(self._extra_am, dtype=np.int64)]
            ),
            np.concatenate(
                [self._base_lm, np.array(self._extra_lm, dtype=np.int64)]
            ),
            np.concatenate(
                [self._base_cost, np.array(self._extra_cost, dtype=np.float64)]
            ),
            np.concatenate(
                [self._base_node, np.array(self._extra_node, dtype=np.int64)]
            ),
        )

    def __len__(self) -> int:
        return self._base_am.shape[0] + len(self._extra_am)

    def __iter__(self):
        return self.tokens.values()
