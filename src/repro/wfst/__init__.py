"""Weighted finite-state transducer substrate.

Everything the recognizer needs from an FST library: semirings, the
mutable :class:`~repro.wfst.fst.Wfst` container, offline composition
(with both epsilon-filter and failure/phi matching), trimming and
shortest-path utilities, and the binary layout used for size accounting.
"""

from repro import lazy_exports

# ``compose`` is also a submodule's name, and the first import of
# ``repro.wfst.compose`` binds the module here: the function is bound
# now so that it is what the package exports, whatever imports first.
from repro.wfst.compose import compose

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "compose": ("ComposeStats", "compose_with_stats"),
        "fst": (
            "EPSILON",
            "Arc",
            "SymbolTable",
            "Wfst",
            "WfstStats",
            "linear_chain",
        ),
        "io": (
            "ARC_RECORD_BYTES",
            "STATE_RECORD_BYTES",
            "SizeBreakdown",
            "deserialize",
            "serialize",
            "uncompressed_size",
            "uncompressed_size_bytes",
        ),
        "ops": (
            "Path",
            "best_path_per_io",
            "connect",
            "coreachable_states",
            "enumerate_paths",
            "reachable_states",
            "shortest_path",
        ),
        "semiring": ("TROPICAL", "Semiring", "TropicalSemiring"),
    },
)

__all__.append("compose")
