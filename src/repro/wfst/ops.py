"""Graph operations over WFSTs: trimming, shortest paths, enumeration.

These are the utilities the rest of the system leans on: ``connect``
keeps composed graphs small, ``shortest_path`` provides the reference
Viterbi answer that decoder tests compare against, and
``enumerate_paths`` brute-forces small machines for property tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.wfst.fst import EPSILON, Wfst


def reachable_states(fst: Wfst) -> set[int]:
    """States reachable from the start state."""
    if fst.start < 0:
        return set()
    seen = {fst.start}
    stack = [fst.start]
    while stack:
        state = stack.pop()
        for arc in fst.out_arcs(state):
            if arc.nextstate not in seen:
                seen.add(arc.nextstate)
                stack.append(arc.nextstate)
    return seen


def coreachable_states(fst: Wfst) -> set[int]:
    """States from which some final state is reachable."""
    # Build the reverse adjacency once; walk back from finals.
    preds: list[list[int]] = [[] for _ in fst.states()]
    for state, arc in fst.all_arcs():
        preds[arc.nextstate].append(state)
    seen = set(fst.finals)
    stack = list(fst.finals)
    while stack:
        state = stack.pop()
        for pred in preds[state]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return seen


def connect(fst: Wfst) -> Wfst:
    """Remove states that are not on any start-to-final path."""
    keep = reachable_states(fst) & coreachable_states(fst)
    out = Wfst(
        semiring=fst.semiring,
        input_symbols=fst.input_symbols,
        output_symbols=fst.output_symbols,
    )
    remap: dict[int, int] = {}
    for state in sorted(keep):
        remap[state] = out.add_state()
    if fst.start in remap:
        out.set_start(remap[fst.start])
    for state in sorted(keep):
        for arc in fst.out_arcs(state):
            if arc.nextstate in remap:
                out.add_arc(
                    remap[state], arc.ilabel, arc.olabel, arc.weight,
                    remap[arc.nextstate],
                )
    for state, weight in fst.finals.items():
        if state in remap:
            out.set_final(remap[state], weight)
    return out


@dataclass
class Path:
    """A start-to-final path through a WFST."""

    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    weight: float

    def words(self, fst: Wfst) -> list[str]:
        """Output symbols along the path, epsilon-stripped."""
        table = fst.output_symbols
        labels = [l for l in self.olabels if l != EPSILON]
        if table is None:
            return [str(l) for l in labels]
        return [table.symbol_of(l) for l in labels]


def shortest_path(fst: Wfst) -> Path | None:
    """The minimum-cost start-to-final path, or None if none exists."""
    if fst.start < 0:
        return None
    dist = [math.inf] * fst.num_states
    back: list[tuple[int, int] | None] = [None] * fst.num_states  # (prev, arc idx)
    dist[fst.start] = 0.0
    heap: list[tuple[float, int]] = [(0.0, fst.start)]
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        for i, arc in enumerate(fst.out_arcs(state)):
            nd = d + arc.weight
            if nd < dist[arc.nextstate]:
                dist[arc.nextstate] = nd
                back[arc.nextstate] = (state, i)
                heapq.heappush(heap, (nd, arc.nextstate))

    best_state, best_cost = -1, math.inf
    for state, fw in fst.finals.items():
        total = dist[state] + fw
        if total < best_cost:
            best_state, best_cost = state, total
    if best_state < 0:
        return None

    ilabels: list[int] = []
    olabels: list[int] = []
    state = best_state
    while back[state] is not None:
        prev, arc_idx = back[state]
        arc = fst.out_arcs(prev)[arc_idx]
        ilabels.append(arc.ilabel)
        olabels.append(arc.olabel)
        state = prev
    ilabels.reverse()
    olabels.reverse()
    return Path(tuple(ilabels), tuple(olabels), best_cost)


def enumerate_paths(fst: Wfst, max_length: int = 12, max_paths: int = 100_000) -> list[Path]:
    """Every start-to-final path with at most ``max_length`` arcs.

    Brute-force reference for property tests on small machines.
    """
    paths: list[Path] = []
    if fst.start < 0:
        return paths

    stack: list[tuple[int, tuple[int, ...], tuple[int, ...], float]] = [
        (fst.start, (), (), 0.0)
    ]
    while stack:
        state, ilabs, olabs, weight = stack.pop()
        if fst.is_final(state):
            paths.append(Path(ilabs, olabs, weight + fst.final_weight(state)))
            if len(paths) > max_paths:
                raise MemoryError("path explosion in enumerate_paths")
        if len(ilabs) >= max_length:
            continue
        for arc in fst.out_arcs(state):
            stack.append(
                (
                    arc.nextstate,
                    ilabs + (arc.ilabel,),
                    olabs + (arc.olabel,),
                    weight + arc.weight,
                )
            )
    return paths


@dataclass
class _AccumulatedPaths:
    by_io: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(
        default_factory=dict
    )


def best_path_per_io(fst: Wfst, max_length: int = 12) -> dict[tuple, float]:
    """Minimum weight per (epsilon-stripped input, output) sequence pair.

    Equivalence up to this map is the right notion for comparing a
    composed machine against the brute-forced relation of its operands.
    """
    acc = _AccumulatedPaths()
    for path in enumerate_paths(fst, max_length=max_length):
        key = (
            tuple(l for l in path.ilabels if l != EPSILON),
            tuple(l for l in path.olabels if l != EPSILON),
        )
        current = acc.by_io.get(key, math.inf)
        if path.weight < current:
            acc.by_io[key] = path.weight
    return acc.by_io
