"""Core WFST data structure.

A :class:`Wfst` is a Mealy machine: states connected by arcs, each arc
carrying an input label, an output label and a weight.  Label ``0`` is
reserved for epsilon (no symbol), following the OpenFst convention.

The structure is mutable during construction and is typically frozen
(arc-sorted, trimmed) before being handed to a decoder.  Symbol tables
map label ids back to strings for debugging and lattice output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.wfst.semiring import TROPICAL, Semiring

EPSILON = 0


@dataclass(frozen=True, slots=True)
class Arc:
    """A single weighted transition.

    Slotted: a graph holds tens of thousands of arcs, and an instance
    ``__dict__`` would add 40 bytes to each.

    Attributes:
        ilabel: Input label id (phone id in the AM, word id in the LM).
        olabel: Output label id (word id; ``EPSILON`` when no word ends).
        weight: Cost in negative log-probability (tropical weight).
        nextstate: Destination state id.
    """

    ilabel: int
    olabel: int
    weight: float
    nextstate: int


class SymbolTable:
    """Bidirectional mapping between label ids and symbol strings.

    Id ``0`` is always ``<eps>``.
    """

    def __init__(self, name: str = "symbols") -> None:
        self.name = name
        self._id_to_sym: list[str] = ["<eps>"]
        self._sym_to_id: dict[str, int] = {"<eps>": EPSILON}

    def add(self, symbol: str) -> int:
        """Intern ``symbol``, returning its (possibly existing) id."""
        existing = self._sym_to_id.get(symbol)
        if existing is not None:
            return existing
        new_id = len(self._id_to_sym)
        self._id_to_sym.append(symbol)
        self._sym_to_id[symbol] = new_id
        return new_id

    def id_of(self, symbol: str) -> int:
        return self._sym_to_id[symbol]

    def symbol_of(self, label: int) -> str:
        return self._id_to_sym[label]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym_to_id

    def __len__(self) -> int:
        return len(self._id_to_sym)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        return iter(enumerate(self._id_to_sym))


@dataclass
class WfstStats:
    """Structural statistics used by the sizing experiments."""

    num_states: int = 0
    num_arcs: int = 0
    num_final: int = 0
    num_epsilon_input: int = 0
    num_epsilon_output: int = 0
    max_out_degree: int = 0

    @property
    def avg_out_degree(self) -> float:
        if self.num_states == 0:
            return 0.0
        return self.num_arcs / self.num_states


@dataclass
class Wfst:
    """A mutable weighted finite-state transducer.

    States are dense integer ids.  ``finals`` maps accepting state ids to
    their final weight.  The input/output symbol tables are optional and
    shared by reference when machines are composed.
    """

    semiring: Semiring = field(default_factory=lambda: TROPICAL)
    start: int = -1
    arcs: list[list[Arc]] = field(default_factory=list)
    finals: dict[int, float] = field(default_factory=dict)
    input_symbols: SymbolTable | None = None
    output_symbols: SymbolTable | None = None

    def add_state(self) -> int:
        self.arcs.append([])
        return len(self.arcs) - 1

    def add_states(self, n: int) -> list[int]:
        return [self.add_state() for _ in range(n)]

    def set_start(self, state: int) -> None:
        self._check_state(state)
        self.start = state

    def set_final(self, state: int, weight: float = 0.0) -> None:
        self._check_state(state)
        self.finals[state] = weight

    def is_final(self, state: int) -> bool:
        return state in self.finals

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, self.semiring.zero)

    def add_arc(
        self,
        state: int,
        ilabel: int,
        olabel: int,
        weight: float,
        nextstate: int,
    ) -> Arc:
        self._check_state(state)
        self._check_state(nextstate)
        arc = Arc(ilabel, olabel, weight, nextstate)
        self.arcs[state].append(arc)
        return arc

    def out_arcs(self, state: int) -> list[Arc]:
        return self.arcs[state]

    @property
    def num_states(self) -> int:
        return len(self.arcs)

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self.arcs)

    def states(self) -> range:
        return range(len(self.arcs))

    def all_arcs(self) -> Iterator[tuple[int, Arc]]:
        """Yield ``(source_state, arc)`` for every arc in the machine."""
        for state, arcs in enumerate(self.arcs):
            for arc in arcs:
                yield state, arc

    def arcsort(self, by: str = "ilabel") -> None:
        """Sort each state's arcs, enabling binary search on that key."""
        if by == "ilabel":
            key = lambda a: (a.ilabel, a.olabel, a.nextstate)
        elif by == "olabel":
            key = lambda a: (a.olabel, a.ilabel, a.nextstate)
        else:
            raise ValueError(f"unknown sort key: {by!r}")
        for arcs in self.arcs:
            arcs.sort(key=key)

    def stats(self) -> WfstStats:
        stats = WfstStats(num_states=self.num_states, num_final=len(self.finals))
        for arcs in self.arcs:
            stats.num_arcs += len(arcs)
            stats.max_out_degree = max(stats.max_out_degree, len(arcs))
            for arc in arcs:
                if arc.ilabel == EPSILON:
                    stats.num_epsilon_input += 1
                if arc.olabel == EPSILON:
                    stats.num_epsilon_output += 1
        return stats

    def copy(self) -> "Wfst":
        out = Wfst(
            semiring=self.semiring,
            start=self.start,
            input_symbols=self.input_symbols,
            output_symbols=self.output_symbols,
        )
        out.arcs = [list(arcs) for arcs in self.arcs]
        out.finals = dict(self.finals)
        return out

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self.arcs):
            raise ValueError(f"state {state} out of range (have {len(self.arcs)})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Wfst(states={self.num_states}, arcs={self.num_arcs}, "
            f"start={self.start}, finals={len(self.finals)})"
        )


def linear_chain(
    labels: Iterable[tuple[int, int, float]], semiring: Semiring = TROPICAL
) -> Wfst:
    """Build a single-path WFST from ``(ilabel, olabel, weight)`` triples.

    Convenient for tests: composing a chain with a model restricts the
    model to one input sequence.
    """
    fst = Wfst(semiring=semiring)
    current = fst.add_state()
    fst.set_start(current)
    for ilabel, olabel, weight in labels:
        nxt = fst.add_state()
        fst.add_arc(current, ilabel, olabel, weight, nxt)
        current = nxt
    fst.set_final(current)
    return fst
