"""WFST compression: quantization, bit-packed formats, sizing models."""

from repro.compress.am_pack import (
    LONG_ARC_BITS as AM_LONG_ARC_BITS,
    SHORT_ARC_BITS as AM_SHORT_ARC_BITS,
    PackedAm,
    pack_am,
    unpack_am,
)
from repro.compress.bits import BitReader, BitWriter, bits_needed
from repro.compress.composed_model import (
    ComposedAddressMap,
    ComposedSizeModel,
    PronunciationTrie,
    build_address_map,
    build_composed_model,
)
from repro.compress.composed_pack import PackedComposedSize, pack_composed_size
from repro.compress.lm_pack import (
    BACKOFF_ARC_BITS,
    REGULAR_ARC_BITS,
    UNIGRAM_ARC_BITS,
    PackedLm,
    pack_lm,
    unpack_lm,
)
from repro.compress.quantize import (
    CENTROID_TABLE_BYTES,
    DEFAULT_CLUSTERS,
    WeightQuantizer,
    fit_wfst_quantizer,
    quantize_wfst,
)
from repro.compress.sizing import (
    DatasetSizing,
    measure_dataset_sizing,
)
from repro.compress.state_pack import (
    PackedStates,
    pack_states,
    packed_state_bits_estimate,
    unpack_states,
)

__all__ = [
    "BitWriter",
    "BitReader",
    "bits_needed",
    "WeightQuantizer",
    "fit_wfst_quantizer",
    "quantize_wfst",
    "DEFAULT_CLUSTERS",
    "CENTROID_TABLE_BYTES",
    "PackedAm",
    "pack_am",
    "unpack_am",
    "AM_SHORT_ARC_BITS",
    "AM_LONG_ARC_BITS",
    "PackedLm",
    "pack_lm",
    "unpack_lm",
    "UNIGRAM_ARC_BITS",
    "BACKOFF_ARC_BITS",
    "REGULAR_ARC_BITS",
    "PackedStates",
    "pack_states",
    "unpack_states",
    "packed_state_bits_estimate",
    "ComposedSizeModel",
    "ComposedAddressMap",
    "PronunciationTrie",
    "build_composed_model",
    "build_address_map",
    "PackedComposedSize",
    "pack_composed_size",
    "DatasetSizing",
    "measure_dataset_sizing",
]
