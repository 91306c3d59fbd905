"""Word lattice.

Every cross-word transition appends a lattice node recording which word
ended, at which frame, with what accumulated cost, chained through
back-pointers.  Backtracing from the best final token yields the
recognized word sequence; the full node set is the word lattice the
Token Issuer writes to main memory.

Two record sizes are defined, matching the paper's Token Cache traffic
discussion: the *raw* layout of the MICRO-49 baseline and the *compact*
layout of Price [22] adopted by UNFOLD (Section 3.1), which the paper
credits with extra memory-traffic savings.  The accelerator model picks
one (``AcceleratorConfig.lattice_record_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bytes per lattice record in the baseline (Reza et al. [34]) layout:
#: frame, word id, back-pointer, cost at 32 bits each.
RAW_RECORD_BYTES = 16

#: Bytes per record in the compact layout of Price [22]: 18-bit word id,
#: 20-bit back-pointer delta, 16-bit frame delta, 10-bit quantized cost
#: = 64 bits packed.
COMPACT_RECORD_BYTES = 8


@dataclass(slots=True)
class LatticeNode:
    """One word-end event on some hypothesis path."""

    word: int  # word id (output label)
    frame: int
    cost: float  # accumulated path cost at emission time
    backpointer: int  # previous node id, -1 for path start


@dataclass
class WordLattice:
    """Append-only lattice with back-pointer chains."""

    nodes: list[LatticeNode] = field(default_factory=list)

    def add(self, word: int, frame: int, cost: float, backpointer: int) -> int:
        """Append a node, returning its id (used as the new back-pointer)."""
        if backpointer >= len(self.nodes):
            raise ValueError(f"dangling backpointer {backpointer}")
        self.nodes.append(LatticeNode(word, frame, cost, backpointer))
        return len(self.nodes) - 1

    def backtrace(self, node_id: int) -> list[int]:
        """Word ids from path start to ``node_id`` inclusive."""
        words: list[int] = []
        while node_id >= 0:
            node = self.nodes[node_id]
            words.append(node.word)
            node_id = node.backpointer
        words.reverse()
        return words

    def __len__(self) -> int:
        return len(self.nodes)

    def depth(self, node_id: int) -> int:
        """Number of words on the path ending at ``node_id``."""
        count = 0
        while node_id >= 0:
            count += 1
            node_id = self.nodes[node_id].backpointer
        return count
