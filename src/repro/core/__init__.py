"""The paper's core: on-the-fly WFST composition decoding."""

from repro.core.arcs import (
    EmittingArcs,
    EpsilonArcs,
    LmWordArcs,
    RecombinationPlan,
    plan_recombination,
)
from repro.core.batch import BatchSegment, advance_segment
from repro.core.beam import BeamConfig
from repro.core.composition import (
    BatchResolveResult,
    LmExpansionCache,
    LmLookup,
    LookupStats,
    LookupStrategy,
    OffsetLookupTable,
    ResolveResult,
)
from repro.core.decoder import (
    DecodeResult,
    DecoderConfig,
    DecoderStats,
    OnTheFlyDecoder,
)
from repro.core.lattice import (
    COMPACT_RECORD_BYTES,
    RAW_RECORD_BYTES,
    LatticeNode,
    WordLattice,
)
from repro.core.offline_decoder import FullyComposedDecoder
from repro.core.tokens import SoaTokenTable, TokenTable
from repro.core.trace import GraphSide, NullSink, TraceSink
from repro.core.two_pass import TwoPassDecoder, TwoPassStats
from repro.core.virtual import ComposedArc, VirtualComposedGraph

__all__ = [
    "EmittingArcs",
    "EpsilonArcs",
    "LmWordArcs",
    "RecombinationPlan",
    "plan_recombination",
    "TokenTable",
    "SoaTokenTable",
    "WordLattice",
    "LatticeNode",
    "COMPACT_RECORD_BYTES",
    "RAW_RECORD_BYTES",
    "BeamConfig",
    "LookupStrategy",
    "LookupStats",
    "LmLookup",
    "LmExpansionCache",
    "OffsetLookupTable",
    "ResolveResult",
    "BatchResolveResult",
    "DecoderConfig",
    "DecoderStats",
    "DecodeResult",
    "OnTheFlyDecoder",
    "BatchSegment",
    "advance_segment",
    "FullyComposedDecoder",
    "TwoPassDecoder",
    "TwoPassStats",
    "VirtualComposedGraph",
    "ComposedArc",
    "GraphSide",
    "TraceSink",
    "NullSink",
]
