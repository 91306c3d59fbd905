"""Structure-of-arrays arc storage for the decode hot loops.

The graphs hold per-state Python lists of ``Arc`` objects.  That layout
is hostile to bulk math: expanding a frame touches tens of thousands of
Python objects.

:class:`EmittingArcs` flattens a graph's *emitting* arcs (non-epsilon
input label) into CSR-style numpy columns, built once per graph:

* ``offsets[s] : offsets[s + 1]`` — the slice of state ``s``'s arcs;
* ``ilabel`` / ``weight`` / ``nextstate`` / ``ordinal`` — contiguous
  per-arc columns, in the same order the scalar loop visits them.

:class:`EpsilonArcs` does the same for the *epsilon* arcs (epsilon
input label) the within-frame epsilon phase walks, and additionally
records the two structural facts the batched epsilon engine gates on:
whether the epsilon graph is single-level (no epsilon arc leads to a
state that has epsilon arcs of its own) and whether every epsilon
weight is non-negative (so the frame's pruning threshold cannot move
during the phase).

:class:`LmWordArcs` flattens an LM graph's word arcs (back-off arc
excluded) into the same CSR layout, ilabel-sorted within each state,
plus each state's back-off arc and the sign of every resolvable total
— the batched epsilon phase's gate.  A lookup over these columns alone (a
shared-memory attach) builds the per-state columns ``LmLookup``'s walks
read from them.

:func:`plan_recombination` then replays sequential Viterbi insertion
over a frame's full candidate batch: it computes, entirely in numpy,
which candidate each destination key ends up keeping, the order keys
first appeared (dict insertion order), and the exact
insert/improvement/recombination counter outcomes the scalar
``TokenTable`` would have produced.  The vectorized decoders are
equivalence-tested against the scalar path down to ``DecoderStats``.

The primitives every vectorized frame runs — the CSR gather,
:func:`stable_cost_order` (``max_active`` truncation) and
:func:`plan_recombination` — order by in-place *value* sorts of
``int64`` words with the arrival index packed into the low bits (one
word carries sort key and permutation: the CPU analogue of Braun et
al.'s packed 64-bit token recombination, arXiv:1910.10032), compare
float costs only inside a key's group, and slice one shared read-only
``iota`` for index columns.  Measurements: DESIGN.md, "The sorts".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tokens import KEY_SHIFT, _iota
from repro.wfst.fst import EPSILON


def _csr_gather(
    offsets: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a batch of source states into their CSR arc slices.

    Returns ``(token_index, flat)`` where ``flat`` indexes the arc
    columns and ``token_index[i]`` is the position in ``states`` that
    arc ``flat[i]`` came from.  Arcs appear grouped by token, in
    ``states`` order — exactly the scalar loops' visit order.
    """
    num_states = states.shape[0]
    # In-place arithmetic only on the fresh fancy-index results; method
    # forms, since a module-level wrapper costs a dispatch of its own.
    starts = offsets[states]
    counts = offsets[1:][states]
    counts -= starts
    ends = counts.cumsum()
    total = int(ends[-1]) if num_states else 0
    # flat = arc-slice start + position within the slice, the latter
    # being the global position minus the slice's exclusive prefix.
    starts -= ends
    starts += counts
    flat = starts.repeat(counts)
    flat += _iota(total)
    return _iota(num_states).repeat(counts), flat


def weight_column(values, weight_dtype: type = np.float64) -> np.ndarray:
    """A float64 weight column holding ``values`` as ``weight_dtype``
    stores them.

    ``np.float32`` rounds each weight as the bundle codec's
    ``struct.pack('<f', ...)`` does — a finite weight float32 cannot
    hold raises :class:`OverflowError` rather than becoming ``inf`` —
    and widens it back, so every gate computed from the column sees the
    deployed value (``-1e-50`` is ``-0.0`` there, which is ``>= 0``).
    """
    exact = np.asarray(values, dtype=np.float64)
    if weight_dtype is np.float64:
        return exact
    with np.errstate(over="ignore"):
        stored = exact.astype(weight_dtype)
    if np.any(np.isinf(stored) & np.isfinite(exact)):
        raise OverflowError(
            f"weight too large for {np.dtype(weight_dtype).name}"
        )
    return stored.astype(np.float64)


@dataclass(frozen=True)
class EmittingArcs:
    """CSR view of one graph's emitting arcs."""

    offsets: np.ndarray  # int64, num_states + 1
    ilabel: np.ndarray  # int64, one entry per emitting arc
    weight: np.ndarray  # float64
    nextstate: np.ndarray  # int64
    ordinal: np.ndarray  # int64, arc index within its source state
    #: ``ilabel - 1``: the acoustic-score column each arc consumes.
    score_index: np.ndarray  # int64
    #: True when every emitting arc has an epsilon *output* label, i.e.
    #: emitting expansion never moves the LM side (holds for the HMM
    #: topologies ``repro.am.graph`` builds).  The vectorized composed
    #: key ``nextstate * num_lm + lm`` is only valid under this flag.
    pure_emitting: bool

    @classmethod
    def from_fst(
        cls, fst, weight_dtype: type = np.float64
    ) -> "EmittingArcs":
        """Flatten ``fst``'s non-epsilon-input arcs, once, their weights
        as ``weight_dtype`` stores them (:func:`weight_column`)."""
        num_states = fst.num_states
        offsets = np.zeros(num_states + 1, dtype=np.int64)
        ilabels: list[int] = []
        weights: list[float] = []
        nextstates: list[int] = []
        ordinals: list[int] = []
        pure = True
        for state in fst.states():
            count = 0
            for ordinal, arc in enumerate(fst.out_arcs(state)):
                if arc.ilabel == EPSILON:
                    continue
                ilabels.append(arc.ilabel)
                weights.append(arc.weight)
                nextstates.append(arc.nextstate)
                ordinals.append(ordinal)
                if arc.olabel != EPSILON:
                    pure = False
                count += 1
            offsets[state + 1] = offsets[state] + count
        ilabel = np.array(ilabels, dtype=np.int64)
        return cls(
            offsets=offsets,
            ilabel=ilabel,
            weight=weight_column(weights, weight_dtype),
            nextstate=np.array(nextstates, dtype=np.int64),
            ordinal=np.array(ordinals, dtype=np.int64),
            score_index=ilabel - 1,
            pure_emitting=pure,
        )

    def scalar_rows(
        self, dest_has_epsilon: list[bool]
    ) -> list[list[tuple[float, int, int, bool]]]:
        """Per state, its arcs as the scalar frame body walks them:
        ``(weight, score_index, key_delta, dest_has_epsilon)``.

        An emitting arc leaves the LM side alone, so it moves a
        :func:`~repro.core.tokens.pack_key` key by a constant —
        ``key_delta``; the last field says whether the destination AM
        state has epsilon arcs (the token arriving there seeds the
        frame's epsilon phase).  Native values throughout, built from
        the CSR columns alone, so a shared-memory attach serves the
        scalar regime without the graph.
        """
        offsets = self.offsets.tolist()
        nextstates = self.nextstate.tolist()
        rows = list(
            zip(
                self.weight.tolist(),
                self.score_index.tolist(),
                nextstates,
                [dest_has_epsilon[dest] for dest in nextstates],
            )
        )
        return [
            [
                (weight, column, (dest - state) << KEY_SHIFT, seeds)
                for weight, column, dest, seeds in rows[lo:hi]
            ]
            for state, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))
        ]

    def gather(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expand a batch of source states into their arc slices.

        Returns ``(token_index, flat)`` where ``flat`` indexes the arc
        columns and ``token_index[i]`` is the position in ``states``
        that arc ``flat[i]`` came from.  Arcs appear grouped by token,
        in ``states`` order — exactly the scalar loop's visit order.
        """
        return _csr_gather(self.offsets, states)


@dataclass(frozen=True)
class EpsilonArcs:
    """CSR view of one graph's epsilon (non-emitting) arcs."""

    offsets: np.ndarray  # int64, num_states + 1
    olabel: np.ndarray  # int64, one entry per epsilon arc
    weight: np.ndarray  # float64
    nextstate: np.ndarray  # int64
    ordinal: np.ndarray  # int64, arc index within its source state
    #: Per-state flag: does the state have epsilon out-arcs at all?
    has_arcs: np.ndarray  # bool, num_states
    #: True when no epsilon arc's destination has epsilon arcs of its
    #: own — the epsilon phase then never grows its worklist, so a
    #: whole frame's phase is a pure function of its seed tokens.
    single_level: bool
    #: True when every epsilon arc weight is >= 0 (together with
    #: non-negative LM costs this keeps the frame's pruning threshold
    #: constant through the phase — the batched engine's other gate).
    nonneg_weights: bool

    @classmethod
    def from_fst(
        cls, fst, weight_dtype: type = np.float64
    ) -> "EpsilonArcs":
        """Flatten ``fst``'s epsilon-input arcs, once, their weights as
        ``weight_dtype`` stores them (:func:`weight_column`)."""
        num_states = fst.num_states
        offsets = np.zeros(num_states + 1, dtype=np.int64)
        olabels: list[int] = []
        weights: list[float] = []
        nextstates: list[int] = []
        ordinals: list[int] = []
        for state in fst.states():
            count = 0
            for ordinal, arc in enumerate(fst.out_arcs(state)):
                if arc.ilabel != EPSILON:
                    continue
                olabels.append(arc.olabel)
                weights.append(arc.weight)
                nextstates.append(arc.nextstate)
                ordinals.append(ordinal)
                count += 1
            offsets[state + 1] = offsets[state] + count
        weight = weight_column(weights, weight_dtype)
        nextstate = np.array(nextstates, dtype=np.int64)
        has_arcs = (offsets[1:] - offsets[:-1]) > 0
        single_level = not bool(
            np.any(has_arcs[nextstate]) if nextstate.shape[0] else False
        )
        nonneg = bool(np.all(weight >= 0.0)) if weight.shape[0] else True
        return cls(
            offsets=offsets,
            olabel=np.array(olabels, dtype=np.int64),
            weight=weight,
            nextstate=nextstate,
            ordinal=np.array(ordinals, dtype=np.int64),
            has_arcs=has_arcs,
            single_level=single_level,
            nonneg_weights=nonneg,
        )

    def fanout(self) -> list[tuple[tuple[int, float, int, int, bool], ...]]:
        """Per state, its arcs as native ``(olabel, weight, nextstate,
        ordinal, dest_has_epsilon)`` tuples in CSR order (``()`` for a
        state without epsilon arcs).  The last field says whether the
        token arriving at ``nextstate`` joins the scalar phase's
        worklist; the batched phase reads the first three."""
        offsets = self.offsets.tolist()
        arcs = list(
            zip(
                self.olabel.tolist(),
                self.weight.tolist(),
                self.nextstate.tolist(),
                self.ordinal.tolist(),
                self.has_arcs[self.nextstate].tolist(),
            )
        )
        return [
            tuple(arcs[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:])
        ]

@dataclass(frozen=True)
class LmWordArcs:
    """CSR word arcs of an LM graph plus each state's back-off arc.

    Word arcs keep the LM construction invariant — ilabel-ascending
    within each state, back-off arc excluded — so a word's arc, if
    present, sits at ``searchsorted(ilabel[state slice], word)``.
    """

    label_space: int  # one past the largest label (back-off label + 1)
    offsets: np.ndarray  # int64, num_states + 1
    ilabel: np.ndarray  # int64, one entry per word arc
    weight: np.ndarray  # float64
    nextstate: np.ndarray  # int64
    backoff_next: np.ndarray  # int64 per state, -1 when absent
    backoff_weight: np.ndarray  # float64 per state, 0 when absent
    #: True when every resolvable total — accumulated back-off
    #: penalties plus the terminal arc weight — is >= 0.  Individual
    #: back-off penalties may be negative (ARPA models routinely have
    #: back-off weights above 1); what decoders need for a constant
    #: in-frame pruning threshold is the sign of the *totals*.
    nonneg_weights: bool

    @classmethod
    def from_graph(
        cls, graph, weight_dtype: type = np.float64
    ) -> "LmWordArcs":
        """Flatten an :class:`~repro.lm.graph.LmGraph`, once, its word
        and back-off weights as ``weight_dtype`` stores them
        (:func:`weight_column`)."""
        fst = graph.fst
        num_states = fst.num_states
        offsets = np.zeros(num_states + 1, dtype=np.int64)
        ilabels: list[int] = []
        weights: list[float] = []
        nextstates: list[int] = []
        backoff_next = np.full(num_states, -1, dtype=np.int64)
        backoff_weight = np.zeros(num_states, dtype=np.float64)
        for state in fst.states():
            arcs = fst.out_arcs(state)
            backoff = graph.backoff_arc(state)
            if backoff is not None:
                backoff_next[state] = backoff.nextstate
                backoff_weight[state] = backoff.weight
                arcs = arcs[:-1]
            for arc in arcs:
                ilabels.append(arc.ilabel)
                weights.append(arc.weight)
                nextstates.append(arc.nextstate)
            offsets[state + 1] = offsets[state] + len(arcs)
        backoff_weight = weight_column(backoff_weight, weight_dtype)
        weight = weight_column(weights, weight_dtype)
        # Every state's back-off chain, which only the gate below reads:
        # the states a failed lookup visits, down to the unigram state,
        # with the penalty paid to *reach* each (0 at the chain head).
        chain_offsets = np.zeros(num_states + 1, dtype=np.int64)
        chain_states: list[int] = []
        chain_hop_weights: list[float] = []
        for state in range(num_states):
            current = state
            penalty = 0.0
            length = 0
            while True:
                chain_states.append(current)
                chain_hop_weights.append(penalty)
                length += 1
                if length > num_states:
                    raise ValueError("back-off arcs form a cycle")
                nxt = int(backoff_next[current])
                if nxt < 0:
                    break
                penalty = float(backoff_weight[current])
                current = nxt
            chain_offsets[state + 1] = chain_offsets[state] + length
        ilabel = np.array(ilabels, dtype=np.int64)
        nonneg = bool(np.all(weight >= 0.0)) if weight.shape[0] else True
        nonneg = nonneg and bool(np.all(backoff_weight >= 0.0))
        if not nonneg:
            # Per-arc signs are too strict: check the resolvable totals.
            nonneg = _all_resolves_nonneg(
                offsets,
                ilabel,
                weight,
                chain_offsets,
                np.array(chain_states, dtype=np.int64),
                np.array(chain_hop_weights, dtype=np.float64),
                int(graph.backoff_label) + 1,
            )
        return cls(
            label_space=int(graph.backoff_label) + 1,
            offsets=offsets,
            ilabel=ilabel,
            weight=weight,
            nextstate=np.array(nextstates, dtype=np.int64),
            backoff_next=backoff_next,
            backoff_weight=backoff_weight,
            nonneg_weights=nonneg,
        )


def _all_resolves_nonneg(
    offsets: np.ndarray,
    ilabel: np.ndarray,
    weight: np.ndarray,
    chain_offsets: np.ndarray,
    chain_states: np.ndarray,
    chain_weights: np.ndarray,
    label_space: int,
) -> bool:
    """Whether every resolvable (state, word) total weight is >= 0.

    A word resolved from ``state`` pays the accumulated back-off
    penalties down to the first chain entry carrying the word, plus
    that arc's weight — a -log probability, so non-negative in any
    properly normalized model even when an individual back-off penalty
    is negative.  Earlier chain entries shadow deeper ones; the
    shadowed sweep runs only for states whose cheap unshadowed bound
    dips below zero.
    """
    num_states = offsets.shape[0] - 1
    min_arc = np.full(num_states, np.inf)
    if weight.shape[0]:
        state_of = np.repeat(np.arange(num_states), np.diff(offsets))
        np.minimum.at(min_arc, state_of, weight)
    seen = np.zeros(label_space, dtype=np.int64)
    for state in range(num_states):
        lo = int(chain_offsets[state])
        hi = int(chain_offsets[state + 1])
        entries = chain_states[lo:hi]
        cum = np.cumsum(chain_weights[lo:hi])
        if float(np.min(cum + min_arc[entries])) >= 0.0:
            continue  # unshadowed lower bound already clears zero
        marker = state + 1
        for depth, target in enumerate(entries.tolist()):
            a = int(offsets[target])
            b = int(offsets[target + 1])
            labels = ilabel[a:b]
            fresh = seen[labels] != marker
            if fresh.any():
                if cum[depth] + float(np.min(weight[a:b][fresh])) < 0.0:
                    return False
                seen[labels[fresh]] = marker
    return True


@dataclass(frozen=True)
class RecombinationPlan:
    """Outcome of replaying sequential Viterbi insertion over a batch.

    Besides the winners and the counters, the plan carries the pieces
    of a key index over the winners — not the index itself.  Most
    frames never search it (epsilon arrivals land at the word-boundary
    state, below every winner's key), so
    :meth:`repro.core.tokens.SoaTokenTable.key_index` derives the
    distinct keys and their winner slots from these three arrays only
    when a search needs them.
    """

    #: Candidate index (into the batch, arrival order) that each
    #: destination key keeps, listed in first-arrival order of the keys
    #: — i.e. the scalar table's dict insertion order.
    winners: np.ndarray
    #: Every candidate's key, ascending (duplicates included): its
    #: first and last entries bound the winners' keys.
    sorted_keys: np.ndarray
    #: ``sorted_keys[group_starts[g]]`` is the ``g``-th distinct key.
    group_starts: np.ndarray
    #: ``first_arrival[j]``: the group (ascending key order) of the
    #: ``j``-th winner — the inverse of the key -> winner-slot map.
    first_arrival: np.ndarray
    inserts: int
    improvements: int
    recombinations: int


def stable_cost_order(costs: np.ndarray) -> np.ndarray:
    """``np.argsort(costs, kind="stable")``, cheaper.

    A stable float sort costs several times an introsort of plain
    values.  Non-negative IEEE-754 doubles order like their own bit
    patterns read as integers, so when a batch's patterns span few
    enough values to leave the low bits free, the arrival index is
    packed under ``pattern - min`` and one in-place value sort yields
    the stable permutation in those low bits — a frame's costs sit
    within a beam of each other, far from zero, so truncation always
    qualifies in practice.  Any other batch (a negative cost or a
    ``-0.0``, which equals ``0.0`` under another pattern; costs spread
    over many binades) takes numpy's stable sort.

    The span comes from one scan of the batch's patterns.  Taking it
    from bounds the caller holds (the frame's best cost and its beam
    threshold) instead saves ~2 µs a truncated frame, too little to
    move ``offline_wide`` throughput, so the scan stays.
    """
    total = int(costs.shape[0])
    if total < 2:
        return np.zeros(total, dtype=np.int64)
    bits = int(total - 1).bit_length()
    pattern = costs.view(np.int64)
    low = int(pattern.min())
    if low < 0 or int(pattern.max()) - low >= (1 << (62 - bits)):
        return np.argsort(costs, kind="stable")
    packed = pattern - np.int64(low)
    packed <<= bits
    packed |= _iota(total)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def plan_recombination(
    keys: np.ndarray, costs: np.ndarray, key_bound: int
) -> RecombinationPlan:
    """Replay ``TokenTable.insert`` over a whole candidate batch.

    ``keys``/``costs`` are the batch in arrival order, and every key
    is below ``key_bound`` (a decoder's ``num_am_states * num_lm``,
    computed once, so no batch is scanned for its maximum).  Sequential
    semantics being replicated: the first candidate for a key inserts;
    a later candidate *strictly* cheaper than the key's running best
    improves (taking over the key's lattice node); anything else
    recombines.  The key's final owner is therefore the *first*
    candidate to reach the key's minimum cost.

    Strategy: one in-place value sort of ``key * 2**b + arrival``
    (arrival index packed into the low bits) both groups the batch by
    key and keeps each group in arrival order; the permutation and the
    sorted keys unpack with a mask and a shift.  Costs are compared
    only inside the groups: a candidate inserts or improves exactly
    when it opens its group or is strictly below the running minimum
    of its group's earlier arrivals — a segmented running minimum over
    the raw float64 costs by stride doubling, ``ceil(log2(w - 1))``
    passes for a widest group of ``w`` (none when no key has more than
    two candidates, the common frame).  It performs only the float
    comparisons ``TokenTable.insert`` performs, so ties, infinities and
    signed zeros behave identically.  First-arrival (dict insertion)
    order of the groups comes from a second, smaller value sort.
    numpy's stable ``argsort`` is the fallback for a ``key_bound`` so
    large that the packed value could overflow ``int64``.  The key
    index over the winners is left in pieces (:class:`RecombinationPlan`).
    """
    total = int(keys.shape[0])
    if total == 0:
        raise ValueError("empty candidate batch")
    bits = int(total - 1).bit_length()
    if key_bound <= (1 << (62 - bits)):
        sorted_keys = keys << bits
        sorted_keys |= _iota(total)
        sorted_keys.sort()
        order = sorted_keys & ((1 << bits) - 1)
        sorted_keys >>= bits
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    # Group openings, with a sentinel opening one past the end so that
    # widths, and "the event before the next opening", need no edge case.
    new_group = np.empty(total + 1, dtype=bool)
    new_group[0] = new_group[total] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:total])
    bounds = new_group.nonzero()[0]
    first_pos = bounds[:-1]
    num_groups = int(first_pos.shape[0])
    widest = int((bounds[1:] - first_pos).max())
    sorted_costs = costs[order]
    # running[i]: minimum cost of i's group up to and including i, once
    # the strides cover the widest group's predecessors.
    running = sorted_costs
    stride = 1
    while stride < widest - 1:
        if running is sorted_costs:
            running = sorted_costs.copy()
        np.minimum(
            running[stride:],
            running[:-stride],
            out=running[stride:],
            where=sorted_keys[stride:] == sorted_keys[:-stride],
        )
        stride *= 2
    improved = new_group.copy()
    improved[1:total] |= sorted_costs[1:] < running[:-1]
    events = improved.nonzero()[0]
    improved_pos = events[:-1]
    improved_total = int(improved_pos.shape[0])
    # Winner of each group: its last event — the one followed by an
    # opening (every opening is itself an event).
    winners = order[improved_pos[new_group[events[1:]]]]
    # Reorder groups into first-arrival order to match dict insertion:
    # value-sort (first arrival, group), the group in the low bits.
    group_bits = int(num_groups - 1).bit_length()
    perm = order[first_pos]
    perm <<= group_bits
    perm |= _iota(num_groups)
    perm.sort()
    perm &= (1 << group_bits) - 1
    return RecombinationPlan(
        winners=winners[perm],
        sorted_keys=sorted_keys,
        group_starts=first_pos,
        first_arrival=perm,
        inserts=num_groups,
        improvements=improved_total - num_groups,
        recombinations=total - improved_total,
    )
