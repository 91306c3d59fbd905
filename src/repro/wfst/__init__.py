"""Weighted finite-state transducer substrate.

Everything the recognizer needs from an FST library: semirings, the
mutable :class:`~repro.wfst.fst.Wfst` container, offline composition
(with both epsilon-filter and failure/phi matching), trimming and
shortest-path utilities, and the binary layout used for size accounting.
"""

from repro.wfst.compose import ComposeStats, compose, compose_with_stats
from repro.wfst.fst import EPSILON, Arc, SymbolTable, Wfst, WfstStats, linear_chain
from repro.wfst.io import (
    ARC_RECORD_BYTES,
    STATE_RECORD_BYTES,
    SizeBreakdown,
    deserialize,
    serialize,
    uncompressed_size,
    uncompressed_size_bytes,
)
from repro.wfst.ops import (
    Path,
    best_path_per_io,
    connect,
    coreachable_states,
    enumerate_paths,
    reachable_states,
    shortest_path,
)
from repro.wfst.semiring import TROPICAL, Semiring, TropicalSemiring

__all__ = [
    "EPSILON",
    "Arc",
    "SymbolTable",
    "Wfst",
    "WfstStats",
    "linear_chain",
    "compose",
    "compose_with_stats",
    "ComposeStats",
    "connect",
    "reachable_states",
    "coreachable_states",
    "shortest_path",
    "enumerate_paths",
    "best_path_per_io",
    "Path",
    "serialize",
    "deserialize",
    "uncompressed_size",
    "uncompressed_size_bytes",
    "SizeBreakdown",
    "ARC_RECORD_BYTES",
    "STATE_RECORD_BYTES",
    "Semiring",
    "TropicalSemiring",
    "TROPICAL",
]
