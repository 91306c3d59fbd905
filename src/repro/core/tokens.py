"""Tokens and per-frame token tables.

A *token* is one search hypothesis: a pair of states — one in the AM
graph, one in the LM graph (Figure 3c's ``(am, lm)`` nodes) — plus the
accumulated path cost and a back-pointer into the word lattice.

The decoder keeps two token tables, one for the frame being consumed
and one being filled for the next frame, mirroring the accelerator's
two hash tables (Figure 4).  Recombination is Viterbi: inserting a
token that collides with a better one is a no-op.

The scalar regime carries a hypothesis as one native int, the state
pair packed by :func:`pack_key` (the scalar analogue of the kernels'
packed ``int64`` words): a :class:`TokenTable` is two dicts over those
keys, and the scalar frame body reads and writes them directly.
"""

from __future__ import annotations

import math

import numpy as np

#: A scalar-regime key is ``am_state << KEY_SHIFT | lm_state``: needs no
#: graph size (``TokenTable()`` takes no argument), and an arc that
#: leaves the LM side alone moves a key by a per-arc constant.
KEY_SHIFT = 32
KEY_LM_MASK = (1 << KEY_SHIFT) - 1


def pack_key(am_state: int, lm_state: int) -> int:
    """The scalar regime's key of a state pair."""
    return am_state << KEY_SHIFT | lm_state


def unpack_key(key: int) -> tuple[int, int]:
    """``(am_state, lm_state)`` of a :func:`pack_key` key."""
    return key >> KEY_SHIFT, key & KEY_LM_MASK


class TokenTable:
    """Best-cost token per (am_state, lm_state) pair.

    ``cost`` and ``node`` map a :func:`pack_key` key to the
    hypothesis's cost and lattice node, both in first-insertion order.
    The scalar frame body works on the two dicts in place (and settles
    ``best_cost`` and the counters when it is done).  Tracks the
    running best cost so beam thresholds are available without a
    separate pass.
    """

    __slots__ = (
        "cost", "node", "best_cost", "inserts", "improvements",
        "recombinations",
    )

    def __init__(self) -> None:
        self.cost: dict[int, float] = {}
        self.node: dict[int, int] = {}
        self.best_cost = math.inf
        self.inserts = 0
        self.improvements = 0
        self.recombinations = 0

    def insert(
        self, am_state: int, lm_state: int, cost: float, lattice_node: int
    ) -> bool:
        """Insert or Viterbi-recombine; returns True if the token survives."""
        key = pack_key(am_state, lm_state)
        existing = self.cost.get(key)
        if existing is None:
            self.inserts += 1
        elif cost < existing:
            self.improvements += 1
        else:
            self.recombinations += 1
            return False
        self.cost[key] = cost
        self.node[key] = lattice_node
        if cost < self.best_cost:
            self.best_cost = cost
        return True

    def __len__(self) -> int:
        return len(self.cost)

    def survivor_items(self, threshold: float) -> list[tuple[int, float, int]]:
        """``(key, cost, lattice_node)`` of the tokens whose cost beats
        ``threshold`` (beam pruning), in table order."""
        node = self.node
        return [
            (key, cost, node[key])
            for key, cost in self.cost.items()
            if cost <= threshold
        ]

    def columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frontier as (am, lm, cost, lattice_node) arrays."""
        size = len(self.cost)
        keys = np.fromiter(self.cost, np.int64, size)
        return (
            keys >> KEY_SHIFT,
            keys & KEY_LM_MASK,
            np.fromiter(self.cost.values(), np.float64, size),
            np.fromiter(self.node.values(), np.int64, size),
        )


_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=np.float64)

#: Shared ``0, 1, 2, ...`` column, regrown on demand.  Read-only: a
#: stray in-place write must raise, not corrupt every later frame.
_IOTA = np.arange(0, dtype=np.int64)


def _iota(n: int) -> np.ndarray:
    """``np.arange(n)`` as a read-only view (no per-call allocation)."""
    global _IOTA
    iota = _IOTA
    if iota.shape[0] < n:  # racing growers each keep a valid column
        iota = np.arange(max(n, 2 * iota.shape[0], 4096), dtype=np.int64)
        iota.flags.writeable = False
        _IOTA = iota
    return iota[:n]


class SoaTokenTable:
    """Token table storing the frontier as structure-of-arrays columns.

    The vectorized decoder fills a frame's table in one shot
    (:meth:`bulk_fill`) from the emitting expansion's winner arrays;
    the batched epsilon phase then adds its arrivals one by one
    (:meth:`insert_hinted`), with :meth:`TokenTable.insert`'s semantics
    and counters.  Most frontier entries are only ever read back as
    arrays by the next frame's expansion.

    Its index keys are ``am_state * num_lm + lm_state`` (dense, so the
    kernels' packed sorts have bits to spare); what crosses into the
    scalar regime (:meth:`survivor_items`) carries :func:`pack_key`
    keys.
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
        # their distinct sorted keys (building a per-frame dict costs
        # more than the handful of epsilon-phase lookups it would
        # serve), an index derived from the pieces ``bulk_fill`` keeps
        # only when a search needs it; epsilon arrivals land in a small
        # dict.
        self._sorted_keys = _EMPTY_INT
        self._group_starts = _EMPTY_INT
        self._first_arrival = _EMPTY_INT
        self._key_index: tuple[np.ndarray, np.ndarray] | None = None
        self._extra_slot: dict[int, int] = {}

    def bulk_fill(
        self,
        am_states: np.ndarray,
        lm_states: np.ndarray,
        costs: np.ndarray,
        nodes: np.ndarray,
        sorted_keys: np.ndarray,
        group_starts: np.ndarray,
        first_arrival: np.ndarray,
        improvements: int,
        recombinations: int,
    ) -> None:
        """Install the winners of a vectorized emitting expansion.

        Must be called on an empty table.  Winners arrive in
        first-arrival order of their packed keys, so iteration matches
        the sequential decoder's dict insertion order exactly.  The
        last three arrays are a
        :class:`~repro.core.arcs.RecombinationPlan`'s index pieces:
        every candidate key ascending (the winners' keys with
        duplicates), where each distinct key starts in it, and the group
        of each winner.  They are kept as given; :meth:`key_index`
        turns them into a searchable index on first use.
        """
        self._base_am = am_states
        self._base_lm = lm_states
        self._base_cost = costs
        self._base_node = nodes
        self._sorted_keys = sorted_keys
        self._group_starts = group_starts
        self._first_arrival = first_arrival
        self._key_index = None
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

        For a frontier that no bulk expansion produced.  Contents,
        order and ``best_cost`` carry over; the insert counters of the
        frame that built the frontier do not (that frame has already
        been accounted).
        """
        # The keys are distinct, one group per token, so the index is
        # known outright: the sorted keys, and the argsort as their slots.
        table = cls(num_lm)
        keys = am_states * np.int64(num_lm) + lm_states
        order = np.argsort(keys)
        sorted_keys = keys[order]
        table.bulk_fill(
            am_states,
            lm_states,
            costs,
            nodes,
            sorted_keys,
            _iota(order.shape[0]),
            _EMPTY_INT,  # never read: the index is installed below
            0,
            0,
        )
        table._key_index = (sorted_keys, order)
        return table

    def survivor_items(self, threshold: float) -> list[tuple[int, float, int]]:
        """Same contract as :meth:`TokenTable.survivor_items`."""
        am, lm, cost, node = self.columns()
        keep = np.flatnonzero(cost <= threshold)
        keys = am[keep] << KEY_SHIFT
        keys |= lm[keep]
        return list(zip(keys.tolist(), cost[keep].tolist(), node[keep].tolist()))

    def key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(distinct_keys, slots)`` over the bulk winners.

        ``distinct_keys`` ascend and ``slots[i]`` is the winner slot
        (first-arrival position) of ``distinct_keys[i]``.  Derived from
        :meth:`bulk_fill`'s pieces on the first call after a fill and
        kept until the next one: a frame whose epsilon arrivals all
        fall outside the winners' key range never builds it.
        """
        index = self._key_index
        if index is None:
            first_arrival = self._first_arrival
            slots = np.empty_like(first_arrival)
            slots[first_arrival] = _iota(first_arrival.shape[0])
            index = self._key_index = (
                self._sorted_keys[self._group_starts],
                slots,
            )
        return index

    def base_slot_hints(self, keys: list[int]) -> list[int]:
        """Bulk-winner slot of each packed key, -1 where absent.

        One vectorized binary search replacing a per-insert
        ``searchsorted``; valid as long as no ``bulk_fill`` intervenes
        (the winners are static after it).  Native lists in and out:
        the caller hands the hints to :meth:`insert_hinted` one by one.
        Keys that all lie below or above the bulk winners' — first and
        last of the sorted candidate keys — need no search and no
        :meth:`key_index`: the usual frame, since epsilon arcs lead to
        the word-boundary state, where no emitting arc does.
        """
        sorted_keys = self._sorted_keys
        size = sorted_keys.shape[0]
        if (
            size == 0
            or max(keys) < sorted_keys[0]
            or min(keys) > sorted_keys[size - 1]
        ):
            return [-1] * len(keys)
        distinct, slots = self.key_index()
        wanted = np.array(keys, dtype=np.int64)
        pos = np.searchsorted(distinct, wanted)
        np.minimum(pos, distinct.shape[0] - 1, out=pos)
        return np.where(distinct[pos] == wanted, slots[pos], -1).tolist()

    def insert_hinted(
        self,
        am_state: int,
        lm_state: int,
        cost: float,
        lattice_node: int,
        base_slot: int,
    ) -> bool:
        """:meth:`TokenTable.insert`, the base-index search precomputed.

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
        # ``concatenate`` converts the native lists itself (Python ints
        # to int64, floats to float64): one call per column.
        concatenate = np.concatenate
        return (
            concatenate((self._base_am, self._extra_am)),
            concatenate((self._base_lm, self._extra_lm)),
            concatenate((self._base_cost, self._extra_cost)),
            concatenate((self._base_node, self._extra_node)),
        )

    def __len__(self) -> int:
        return self._base_am.shape[0] + len(self._extra_am)
