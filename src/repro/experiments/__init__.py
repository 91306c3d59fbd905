"""Experiment drivers: one module per table/figure of the evaluation."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "common": (
            "ExperimentResult",
            "TaskBundle",
            "get_bundle",
            "paper_bundles",
        ),
    },
)
