"""The fully-composed baseline accelerator simulator (Reza et al. [34]).

The MICRO-49 design point on :class:`~repro.accel.unfold.UnfoldSimulator`'s
run loop, area formula and energy model: the decoder searches the
offline-composed graph, the memory system has a single unified arc
cache and no Offset Lookup Table, and the dataset layout is the
uncompressed composed WFST.  Its lattice record size (raw, pre-Price)
comes with the ``REZA`` configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.accel.config import REZA, AcceleratorConfig
from repro.accel.layout import ComposedLayout
from repro.accel.sink import ComposedSink
from repro.accel.unfold import SIMULATED_SEARCH, _Simulator, _sram_pj
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.asr.task import AsrTask
from repro.core.decoder import DecoderConfig
from repro.core.offline_decoder import FullyComposedDecoder


@dataclass
class FullyComposedSimulator(_Simulator):
    """Cycle-level simulation of the MICRO-49 baseline."""

    task: "AsrTask"
    config: AcceleratorConfig = field(default_factory=lambda: REZA)
    decoder_config: DecoderConfig = replace(
        SIMULATED_SEARCH, preemptive_pruning=False
    )

    def __post_init__(self) -> None:
        self.layout = ComposedLayout.build(self.task)

    def _traced_decoder(self) -> tuple[ComposedSink, FullyComposedDecoder]:
        sink = ComposedSink(self.config, self.layout, self.task)
        decoder = FullyComposedDecoder(
            self.task.am, self.task.lm, self.decoder_config, sink=sink
        )
        return sink, decoder

    def _own_sram_pj(
        self, sink: ComposedSink, seconds: float
    ) -> tuple[float, float]:
        arc_caches = _sram_pj(
            self.config.am_arc_cache_kb * 1024,
            sink.arc_cache.stats.accesses,
            seconds,
        )
        return arc_caches, 0.0  # the baseline has no OLT
