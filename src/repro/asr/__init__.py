"""End-to-end ASR system assembly: tasks, datasets, pipeline, metrics."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dataset": (
            "ComponentSizes",
            "build_scorer",
            "measure_component_sizes",
        ),
        "parallel": ("DecodePool",),
        "persist": ("RecognizerBundle", "load_recognizer", "save_recognizer"),
        "streaming": (
            "PartialHypothesis",
            "StreamingSession",
            "decode_streaming",
        ),
        "system": ("AsrSystem", "OverallReport"),
        "task": (
            "EESEN_TEDLIUM",
            "KALDI_LIBRISPEECH",
            "KALDI_TEDLIUM",
            "KALDI_VOXFORGE",
            "PAPER_TASKS",
            "TINY",
            "AsrTask",
            "TaskConfig",
            "build_task",
        ),
        "wer": (
            "EditCounts",
            "align_counts",
            "corpus_edit_counts",
            "word_error_rate",
        ),
    },
)
