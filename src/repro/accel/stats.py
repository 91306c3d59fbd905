"""Run reports: the measurements every figure and table is built from."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.dram import Traffic
from repro.accel.energy import EnergyBreakdown
from repro.accel.lookup import LookupCounts
from repro.core.decoder import DecoderStats


@dataclass(frozen=True)
class UtteranceTiming:
    """Per-utterance decode latency (Table 5's unit of measurement),
    under the additive (no-overlap) cycle model."""

    frames: int
    decode_seconds: float

    @property
    def speech_seconds(self) -> float:
        return self.frames * 0.01


@dataclass
class RunReport:
    """Everything one simulated platform produced over a test set.

    ``results`` are the decoder's own, untouched; what the lookup
    hardware did is the simulator's record, per utterance
    (``lookup_by_utterance``) and in total (``lookup``).
    """

    platform: str
    task_name: str
    utterances: list[UtteranceTiming] = field(default_factory=list)
    decoder_stats: DecoderStats = field(default_factory=DecoderStats)
    lookup: LookupCounts = field(default_factory=LookupCounts)
    lookup_by_utterance: list[LookupCounts] = field(default_factory=list)
    energy: EnergyBreakdown | None = None
    miss_ratios: dict[str, float] = field(default_factory=dict)
    dram_bytes_by_class: dict[Traffic, int] = field(default_factory=dict)
    area_mm2: float = 0.0
    word_error_rate: float | None = None
    results: list = field(default_factory=list)  # DecodeResult per utterance

    @property
    def speech_seconds(self) -> float:
        return sum(u.speech_seconds for u in self.utterances)

    @property
    def decode_seconds(self) -> float:
        return sum(u.decode_seconds for u in self.utterances)

    @property
    def realtime_factor(self) -> float:
        if self.decode_seconds <= 0:
            return float("inf")
        return self.speech_seconds / self.decode_seconds

    @property
    def avg_latency_ms(self) -> float:
        if not self.utterances:
            return 0.0
        return 1e3 * self.decode_seconds / len(self.utterances)

    @property
    def max_latency_ms(self) -> float:
        if not self.utterances:
            return 0.0
        return 1e3 * max(u.decode_seconds for u in self.utterances)

    @property
    def energy_mj_per_speech_second(self) -> float:
        """Figure 9's metric."""
        if self.energy is None or self.speech_seconds <= 0:
            return 0.0
        return self.energy.total_joules * 1e3 / self.speech_seconds

    @property
    def bandwidth_mb_per_second(self) -> float:
        """Figure 11's metric: DRAM traffic over decode time."""
        if self.decode_seconds <= 0:
            return 0.0
        total = sum(self.dram_bytes_by_class.values())
        return total / self.decode_seconds / 2**20

    def bandwidth_by_class_mb_per_second(self) -> dict[str, float]:
        if self.decode_seconds <= 0:
            return {t.value: 0.0 for t in Traffic}
        return {
            t.value: b / self.decode_seconds / 2**20
            for t, b in self.dram_bytes_by_class.items()
        }
