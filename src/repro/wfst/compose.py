"""Offline WFST composition.

This is the preprocessing step used by fully-composed decoders (the
paper's baseline, Yazdani et al. [34]): the acoustic-model transducer is
composed with the language-model acceptor offline, producing the single
large search graph whose size Table 1 reports.

Two matching disciplines are provided:

* **Epsilon-filter composition** (the default): the standard construction
  in which output-epsilon arcs of ``a`` and input-epsilon arcs of ``b``
  may be taken independently.  A two-state filter canonicalizes epsilon
  interleavings (all ``a``-side moves before ``b``-side moves) so each
  composite path appears exactly once.

* **Phi (failure) composition**: arcs in ``b`` labelled ``phi_label`` are
  treated as *failure* transitions, taken only when the requested label
  has no direct match at the current state.  This matches the exact
  back-off semantics of an n-gram language model and of the UNFOLD
  on-the-fly decoder, so a machine composed this way is path-equivalent
  to what the on-the-fly decoder explores.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from repro.wfst.fst import EPSILON, Arc, Wfst

#: Filter state: no b-side epsilon move taken since the last match.
_FILTER_OPEN = 0
#: Filter state: a b-side epsilon move was taken; a-side moves are blocked.
_FILTER_B_ONLY = 1


@dataclass
class ComposeStats:
    """Bookkeeping from a composition run (used by sizing experiments)."""

    states_visited: int = 0
    arcs_created: int = 0
    match_lookups: int = 0
    phi_traversals: int = 0


class _SortedArcIndex:
    """Per-state arc index over ``b`` enabling binary search by ilabel."""

    def __init__(self, fst: Wfst) -> None:
        self._arcs: list[list[Arc]] = []
        self._keys: list[list[int]] = []
        for state in fst.states():
            arcs = sorted(fst.out_arcs(state), key=lambda a: a.ilabel)
            self._arcs.append(arcs)
            self._keys.append([a.ilabel for a in arcs])

    def matches(self, state: int, label: int) -> list[Arc]:
        """All arcs at ``state`` whose input label equals ``label``."""
        keys = self._keys[state]
        arcs = self._arcs[state]
        lo = bisect_left(keys, label)
        out = []
        for i in range(lo, len(keys)):
            if keys[i] != label:
                break
            out.append(arcs[i])
        return out

    def single_match(self, state: int, label: int) -> Arc | None:
        matches = self.matches(state, label)
        return matches[0] if matches else None


def compose(
    a: Wfst,
    b: Wfst,
    phi_label: int | None = None,
    max_states: int | None = None,
) -> Wfst:
    """Compose transducers ``a`` and ``b`` (``a``'s outputs feed ``b``).

    Args:
        a: Left transducer (e.g. the acoustic model, phones -> words).
        b: Right transducer (e.g. the language model, words -> words).
        phi_label: If given, arcs in ``b`` with this input label are
            failure arcs with back-off semantics instead of epsilons.
        max_states: Safety valve; raise if the composition exceeds it.

    Returns:
        The composed transducer, trimmed to accessible states.
    """
    result, _ = compose_with_stats(a, b, phi_label=phi_label, max_states=max_states)
    return result


def compose_with_stats(
    a: Wfst,
    b: Wfst,
    phi_label: int | None = None,
    max_states: int | None = None,
) -> tuple[Wfst, ComposeStats]:
    """Like :func:`compose` but also returns :class:`ComposeStats`."""
    if a.start < 0 or b.start < 0:
        raise ValueError("both operands need a start state")

    stats = ComposeStats()
    index = _SortedArcIndex(b)
    out = Wfst(
        semiring=a.semiring,
        input_symbols=a.input_symbols,
        output_symbols=b.output_symbols,
    )

    state_ids: dict[tuple[int, int, int], int] = {}
    queue: deque[tuple[int, int, int]] = deque()

    def intern(key: tuple[int, int, int]) -> int:
        existing = state_ids.get(key)
        if existing is not None:
            return existing
        new_id = out.add_state()
        if max_states is not None and new_id >= max_states:
            raise MemoryError(
                f"composition exceeded max_states={max_states}; "
                "the offline-composed graph blow-up is the paper's point"
            )
        state_ids[key] = new_id
        queue.append(key)
        return new_id

    start_key = (a.start, b.start, _FILTER_OPEN)
    out.set_start(intern(start_key))

    while queue:
        key = queue.popleft()
        s1, s2, filt = key
        src = state_ids[key]
        stats.states_visited += 1

        if a.is_final(s1) and b.is_final(s2):
            out.set_final(
                src, a.semiring.times(a.final_weight(s1), b.final_weight(s2))
            )

        for arc_a in a.out_arcs(s1):
            if arc_a.olabel == EPSILON:
                # a moves alone; blocked after a b-side epsilon move so the
                # interleaving a*, b* is canonical.
                if filt == _FILTER_OPEN:
                    dst = intern((arc_a.nextstate, s2, _FILTER_OPEN))
                    out.add_arc(src, arc_a.ilabel, EPSILON, arc_a.weight, dst)
                    stats.arcs_created += 1
                continue

            stats.match_lookups += 1
            if phi_label is not None:
                _expand_phi(
                    out, src, arc_a, s2, index, phi_label, intern, stats
                )
            else:
                for arc_b in index.matches(s2, arc_a.olabel):
                    dst = intern((arc_a.nextstate, arc_b.nextstate, _FILTER_OPEN))
                    weight = a.semiring.times(arc_a.weight, arc_b.weight)
                    out.add_arc(src, arc_a.ilabel, arc_b.olabel, weight, dst)
                    stats.arcs_created += 1

        if phi_label is None:
            # b moves alone on its input-epsilon arcs.
            for arc_b in index.matches(s2, EPSILON):
                dst = intern((s1, arc_b.nextstate, _FILTER_B_ONLY))
                out.add_arc(src, EPSILON, arc_b.olabel, arc_b.weight, dst)
                stats.arcs_created += 1

    return out, stats


def _expand_phi(
    out: Wfst,
    src: int,
    arc_a: Arc,
    b_state: int,
    index: _SortedArcIndex,
    phi_label: int,
    intern,
    stats: ComposeStats,
) -> None:
    """Match ``arc_a.olabel`` in ``b`` starting at ``b_state``.

    Follows failure (phi) arcs, accumulating their weights, until a state
    with a direct match is reached — the exact back-off walk the
    on-the-fly decoder performs (Section 3.3 of the paper).  The arc
    weighs ``a + (phis + direct)``: the LM side's total first, as the
    fully-composed decoder adds it, so the two agree to the last bit.
    """
    label = arc_a.olabel
    weight_so_far = 0.0
    state = b_state
    seen: set[int] = set()
    while True:
        direct = index.single_match(state, label)
        if direct is not None:
            dst = intern((arc_a.nextstate, direct.nextstate, _FILTER_OPEN))
            weight = arc_a.weight + (weight_so_far + direct.weight)
            out.add_arc(src, arc_a.ilabel, label, weight, dst)
            stats.arcs_created += 1
            return
        phi = index.single_match(state, phi_label)
        if phi is None or state in seen:
            return  # no match anywhere along the back-off chain
        seen.add(state)
        weight_so_far += phi.weight
        state = phi.nextstate
        stats.phi_traversals += 1
