"""WFST compression: quantization, bit-packed formats, sizing models."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "am_pack": (
            "LONG_ARC_BITS as AM_LONG_ARC_BITS",
            "SHORT_ARC_BITS as AM_SHORT_ARC_BITS",
            "PackedAm",
            "pack_am",
            "unpack_am",
        ),
        "bits": ("BitReader", "BitWriter", "bits_needed"),
        "composed_model": (
            "ComposedAddressMap",
            "ComposedSizeModel",
            "PronunciationTrie",
            "build_address_map",
            "build_composed_model",
        ),
        "composed_pack": ("PackedComposedSize", "pack_composed_size"),
        "lm_pack": (
            "BACKOFF_ARC_BITS",
            "REGULAR_ARC_BITS",
            "UNIGRAM_ARC_BITS",
            "PackedLm",
            "pack_lm",
            "unpack_lm",
        ),
        "quantize": (
            "CENTROID_TABLE_BYTES",
            "DEFAULT_CLUSTERS",
            "WeightQuantizer",
            "fit_wfst_quantizer",
            "quantize_wfst",
        ),
        "sizing": ("DatasetSizing", "measure_dataset_sizing"),
        "state_pack": (
            "PackedStates",
            "pack_states",
            "packed_state_bits_estimate",
            "unpack_states",
        ),
    },
)
