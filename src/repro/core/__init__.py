"""The paper's core: on-the-fly WFST composition decoding."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arcs": (
            "EmittingArcs",
            "EpsilonArcs",
            "LmWordArcs",
            "RecombinationPlan",
            "plan_recombination",
        ),
        "batch": ("BatchSegment", "advance_segment"),
        "beam": ("BeamConfig",),
        "composition": (
            "BatchResolveResult",
            "LmLookup",
            "LookupStats",
            "ResolveResult",
        ),
        "decoder": (
            "DecodeResult",
            "DecoderConfig",
            "DecoderStats",
            "OnTheFlyDecoder",
        ),
        "lattice": (
            "COMPACT_RECORD_BYTES",
            "RAW_RECORD_BYTES",
            "LatticeNode",
            "WordLattice",
        ),
        "offline_decoder": ("FullyComposedDecoder",),
        "tokens": ("SoaTokenTable", "TokenTable"),
        "trace": ("GraphSide", "TraceSink"),
        "two_pass": ("TwoPassDecoder", "TwoPassStats"),
    },
)
