"""The overall ASR system (Section 5.2).

Three platform assemblies, as in Figures 12-13:

* ``tegra-x1``: scorer and Viterbi search both on the mobile GPU;
* ``reza``: scorer on the GPU, search on the fully-composed accelerator;
* ``unfold``: scorer on the GPU, search on UNFOLD.

In the accelerated assemblies the GPU computes acoustic scores for
batch *N+1* while the accelerator decodes batch *N* (the integration of
[35]), so the steady-state decode time per batch is the maximum of the
two stages plus a small shared-buffer communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.accel.gpu import GpuModel
from repro.am.features import Utterance
from repro.am.scorer import AcousticScorer
from repro.asr.task import AsrTask
from repro.asr.wer import word_error_rate
from repro.core.decoder import DecodeResult, DecoderConfig

if TYPE_CHECKING:
    from repro.accel.fully_composed import FullyComposedSimulator
    from repro.accel.stats import RunReport
    from repro.accel.unfold import UnfoldSimulator

#: Shared-buffer transfer cost per second of speech (acoustic scores
#: through main memory), in seconds; small relative to either stage.
COMM_SECONDS_PER_SPEECH_SECOND = 1e-3


@dataclass(frozen=True)
class OverallReport:
    """Figures 12-13: whole-pipeline time and energy for one platform."""

    platform: str
    task_name: str
    speech_seconds: float
    scorer_seconds: float
    search_seconds: float
    scorer_joules: float
    search_joules: float
    word_error_rate: float
    search_report: RunReport | None = None

    @property
    def decode_seconds(self) -> float:
        """Steady-state pipeline time: stages overlap across batches."""
        comm = COMM_SECONDS_PER_SPEECH_SECOND * self.speech_seconds
        return max(self.scorer_seconds, self.search_seconds) + comm

    @property
    def decode_ms_per_speech_second(self) -> float:
        """Figure 12's metric."""
        if self.speech_seconds <= 0:
            return 0.0
        return 1e3 * self.decode_seconds / self.speech_seconds

    @property
    def total_joules(self) -> float:
        return self.scorer_joules + self.search_joules

    @property
    def energy_mj_per_speech_second(self) -> float:
        """Figure 13's metric."""
        if self.speech_seconds <= 0:
            return 0.0
        return 1e3 * self.total_joules / self.speech_seconds

    @property
    def realtime_factor(self) -> float:
        if self.decode_seconds <= 0:
            return float("inf")
        return self.speech_seconds / self.decode_seconds


@dataclass
class AsrSystem:
    """A task + trained scorer, runnable on any of the three platforms."""

    task: AsrTask
    scorer: AcousticScorer
    gpu: GpuModel = field(default_factory=GpuModel)
    # Live DecodePools keyed by (parallelism, config fields): building
    # one costs a table build (a segment pack and worker start-up when
    # parallel), so transcribe reuses them across calls instead of
    # paying that per batch.
    _pools: dict = field(default_factory=dict, repr=False, compare=False)

    def score_all(self, utterances: list[Utterance]) -> list[np.ndarray]:
        return [self.scorer.score(u.features) for u in utterances]

    def _pool_for(self, config: DecoderConfig | None, parallelism: int):
        """The cached DecodePool for one (config, parallelism) key.

        Pools persist across calls — workers warm up once, not per
        batch; :meth:`close` releases them.
        """
        from dataclasses import astuple

        from repro.asr.parallel import DecodePool

        key = (parallelism, None if config is None else astuple(config))
        pool = self._pools.get(key)
        if pool is None:
            pool = DecodePool(
                self.task.am,
                self.task.lm,
                scorer=self.scorer,
                config=config,
                parallelism=parallelism,
            )
            self._pools[key] = pool
        return pool

    def transcribe(
        self,
        utterances: list[Utterance],
        config: DecoderConfig | None = None,
        parallelism: int = 1,
    ) -> list[DecodeResult]:
        """Score and decode a batch with the software decoder.

        ``parallelism > 1`` fans utterances out over worker processes
        (see :class:`repro.asr.parallel.DecodePool`).  On hosts with a
        single visible CPU such a request quietly decodes serially —
        process fan-out can't help there.  Every strategy returns
        bit-identical results in input order, and streamed finals equal
        them: a batch of streams is a batch for this call.  The pool's
        ``strategy`` records which one ran.
        """
        pool = self._pool_for(config, parallelism)
        return pool.decode_utterances(utterances)

    def close(self) -> None:
        """Shut down any worker pools transcribe has built."""
        pools, self._pools = dict(self._pools), {}
        for pool in pools.values():
            pool.close()

    def __enter__(self) -> "AsrSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    def _scorer_stage(self, utterances: list[Utterance]) -> tuple[float, float]:
        frames = sum(u.num_frames for u in utterances)
        report = self.gpu.scorer_report(self.scorer.flops_per_frame, frames)
        return report.seconds, report.joules

    def _wer(self, utterances: list[Utterance], results) -> float:
        return word_error_rate(
            [u.words for u in utterances], [r.words for r in results]
        )

    def run_gpu_only(self, utterances: list[Utterance]) -> OverallReport:
        """Everything on the Tegra X1 (the paper's software baseline)."""
        from repro.accel.unfold import UnfoldSimulator

        scores = self.score_all(utterances)
        # Functional search result comes from the reference decoder; GPU
        # timing comes from the analytical kernel model.
        sim = UnfoldSimulator(self.task)
        accel_report = sim.run(scores)
        search = self.gpu.search_run_report(
            [r.stats for r in accel_report.results], self.task.name
        )
        scorer_seconds, scorer_joules = self._scorer_stage(utterances)
        return OverallReport(
            platform="tegra-x1",
            task_name=self.task.name,
            speech_seconds=sum(u.duration_seconds for u in utterances),
            scorer_seconds=scorer_seconds,
            search_seconds=search.decode_seconds,
            scorer_joules=scorer_joules,
            search_joules=search.energy.total_joules,
            word_error_rate=self._wer(utterances, accel_report.results),
            search_report=search,
        )

    def run_with_accelerator(
        self,
        utterances: list[Utterance],
        simulator: UnfoldSimulator | FullyComposedSimulator,
    ) -> OverallReport:
        """GPU front-end + hardware Viterbi search (Section 5.2 setup)."""
        scores = self.score_all(utterances)
        report = simulator.run(scores)
        scorer_seconds, scorer_joules = self._scorer_stage(utterances)
        return OverallReport(
            platform=report.platform,
            task_name=self.task.name,
            speech_seconds=sum(u.duration_seconds for u in utterances),
            scorer_seconds=scorer_seconds,
            search_seconds=report.decode_seconds,
            scorer_joules=scorer_joules,
            search_joules=report.energy.total_joules,
            word_error_rate=self._wer(utterances, report.results),
            search_report=report,
        )
