"""Zero-copy shared-memory recognizer segments.

``pack_recognizer`` flattens a recognizer's graph/LM/scorer arrays into
one named shared-memory segment (manifest + checksums);
``attach_recognizer`` maps it back as read-only numpy views —
bit-identical decodes, one physical copy of the data no matter how many
worker processes attach.  See :mod:`repro.shm.recognizer` for the
memory story and :mod:`repro.shm.segments` for the segment format.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "meminfo": (
            "process_memory",
            "rss_bytes",
            "segment_memory",
            "uss_bytes",
        ),
        "recognizer": (
            "RECOGNIZER_SHM_VERSION",
            "AttachedRecognizer",
            "attach_recognizer",
            "bundle_quantize",
            "pack_recognizer",
        ),
        "segments": (
            "SHM_FORMAT_VERSION",
            "SharedArrays",
            "ShmAttachError",
            "ShmChecksumError",
            "ShmError",
            "ShmVersionError",
            "attach_arrays",
            "pack_arrays",
            "segment_name",
        ),
    },
)
