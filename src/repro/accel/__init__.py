"""Accelerator simulators: UNFOLD, the fully-composed baseline, the GPU."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("Cache", "CacheConfig", "CacheStats", "WriteBuffer"),
        "config": (
            "PAPER_DATASET_BYTES",
            "REZA",
            "UNFOLD",
            "AcceleratorConfig",
            "GpuConfig",
        ),
        "dram": ("DramConfig", "DramModel", "Traffic"),
        "energy": (
            "EnergyBreakdown",
            "mj_per_second_of_speech",
            "sram_area_mm2",
            "sram_leakage_mw",
            "sram_read_energy_pj",
        ),
        "fully_composed": ("FullyComposedSimulator",),
        "gpu": ("GpuKernelReport", "GpuModel"),
        "layout": ("ComposedLayout", "OnTheFlyLayout"),
        "pipeline": ("CycleReport", "cycles_for"),
        "sink": ("ComposedSink", "UnfoldSink"),
        "stats": ("RunReport", "UtteranceTiming"),
        "unfold": ("UnfoldSimulator",),
    },
)
