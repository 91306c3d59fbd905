"""Shared experiment harness.

Every table/figure driver needs the same expensive artifacts: built
tasks, trained scorers, synthesized test sets, score matrices and
platform run-reports.  This module builds them once per task (module-
level cache) so the benchmark suite does not re-train models for every
figure.

Hardware scaling: the paper's cache hierarchy (Table 3) was sized
against ~1 GB composed datasets; our reproduction datasets are tens of
megabytes.  Both platforms' configurations are scaled by the *same*
factor — the task's composed-dataset size over the paper's reference —
which preserves the cache-pressure relationships every memory-system
figure measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel import (
    PAPER_DATASET_BYTES,
    REZA,
    UNFOLD,
    AcceleratorConfig,
    FullyComposedSimulator,
    GpuModel,
    RunReport,
    UnfoldSimulator,
)
from repro.am.features import Utterance
from repro.am.scorer import AcousticScorer
from repro.asr import AsrSystem, AsrTask, OverallReport, build_scorer, build_task
from repro.asr.task import PAPER_TASKS, TaskConfig
from repro.compress.sizing import DatasetSizing, measure_dataset_sizing

#: Default evaluation set per task: enough utterances for stable
#: averages while keeping the full benchmark suite fast.
TEST_UTTERANCES = 8
MAX_WORDS = 8

#: Hardware-scaling floor.  Raw dataset-proportional scaling would push
#: the caches below one working set (a regime the paper never operates
#: in); 1/8 keeps the paper's qualitative relationship — UNFOLD's
#: compressed dataset largely cache-resident, the baseline's composed
#: graph under pressure — at reproduction scale.
MIN_SCALE = 1.0 / 8.0

#: Histogram-pruning cap used by every simulated run.  Real decoders
#: (and the paper's accelerator, via its hash-table capacity) bound the
#: per-frame frontier; an uncapped beam on the noisier tasks lets the
#: frontier explode and only adds hypotheses that lose anyway.
MAX_ACTIVE = 800


@dataclass
class TaskBundle:
    """Everything the experiment drivers need for one task."""

    task: AsrTask
    scorer: AcousticScorer
    utterances: list[Utterance]
    scores: list[np.ndarray]
    sizing: DatasetSizing
    unfold_config: AcceleratorConfig
    reza_config: AcceleratorConfig
    _reports: dict[str, RunReport] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def references(self) -> list[list[str]]:
        return [u.words for u in self.utterances]

    def unfold_report(self) -> RunReport:
        if "unfold" not in self._reports:
            sim = UnfoldSimulator(self.task, config=self.unfold_config)
            self._reports["unfold"] = sim.run(self.scores)
        return self._reports["unfold"]

    def reza_report(self) -> RunReport:
        if "reza" not in self._reports:
            sim = FullyComposedSimulator(self.task, config=self.reza_config)
            self._reports["reza"] = sim.run(self.scores)
        return self._reports["reza"]

    def gpu_search_report(self) -> RunReport:
        if "gpu" not in self._reports:
            stats = [r.stats for r in self.unfold_report().results]
            self._reports["gpu"] = GpuModel().search_run_report(stats, self.name)
        return self._reports["gpu"]

    def system(self) -> AsrSystem:
        return AsrSystem(task=self.task, scorer=self.scorer)

    def quantized_graphs(self):
        """AM/LM rebuilt through the Section 3.4 bit formats (cached)."""
        if "quantized" not in self._reports:
            from repro.am.graph import AmGraph
            from repro.compress import pack_am, pack_lm, unpack_am, unpack_lm
            from repro.lm.graph import LmGraph

            packed_am = pack_am(self.task.am.fst)
            am = AmGraph(
                fst=unpack_am(packed_am),
                words=self.task.am.words,
                topology=self.task.am.topology,
                loop_state=self.task.am.loop_state,
                num_senones=self.task.am.num_senones,
                chain_state_senone=self.task.am.chain_state_senone,
            )
            packed_lm = pack_lm(self.task.lm)
            perm = packed_lm.permutation
            state_of_context = {
                ctx: perm[s] for ctx, s in self.task.lm.state_of_context.items()
            }
            lm_fst = unpack_lm(packed_lm)
            context_of_state = [()] * lm_fst.num_states
            for ctx, s in state_of_context.items():
                context_of_state[s] = ctx
            lm = LmGraph(
                fst=lm_fst,
                words=self.task.lm.words,
                backoff_label=packed_lm.backoff_label,
                state_of_context=state_of_context,
                context_of_state=context_of_state,
            )
            lm.fst.arcsort("ilabel")
            self._reports["quantized"] = (am, lm)
        return self._reports["quantized"]

    def overall_reports(self) -> dict[str, "OverallReport"]:
        """Whole-pipeline reports for the three platforms (cached)."""
        if "overall" not in self._reports:
            system = self.system()
            self._reports["overall"] = {
                "tegra": system.run_gpu_only(self.utterances),
                "unfold": system.run_with_accelerator(
                    self.utterances,
                    UnfoldSimulator(self.task, config=self.unfold_config),
                ),
                "reza": system.run_with_accelerator(
                    self.utterances,
                    FullyComposedSimulator(self.task, config=self.reza_config),
                ),
            }
        return self._reports["overall"]


_BUNDLES: dict[str, TaskBundle] = {}


def get_bundle(config: TaskConfig) -> TaskBundle:
    """Build (or fetch the cached) bundle for one task config."""
    if config.name in _BUNDLES:
        return _BUNDLES[config.name]
    task = build_task(config)
    scorer = build_scorer(task, training_utterances=40, hidden=256)
    utterances = task.test_set(TEST_UTTERANCES, max_words=MAX_WORDS)
    scores = [scorer.score(u.features) for u in utterances]
    sizing = measure_dataset_sizing(task)
    factor = max(
        MIN_SCALE, min(1.0, sizing.composed_bytes / PAPER_DATASET_BYTES)
    )
    bundle = TaskBundle(
        task=task,
        scorer=scorer,
        utterances=utterances,
        scores=scores,
        sizing=sizing,
        unfold_config=UNFOLD.scaled(factor),
        reza_config=REZA.scaled(factor),
    )
    _BUNDLES[config.name] = bundle
    return bundle


def paper_bundles(limit: int | None = None) -> list[TaskBundle]:
    """Bundles for the paper's four decoders (Table 1 rows)."""
    configs = PAPER_TASKS[:limit] if limit else PAPER_TASKS
    return [get_bundle(c) for c in configs]


@dataclass
class ExperimentResult:
    """One regenerated table/figure: rows plus a rendered text view."""

    experiment_id: str
    title: str
    rows: list[dict]
    notes: str = ""

    def render(self) -> str:
        if not self.rows:
            return f"{self.experiment_id}: (no rows)"
        keys = list(self.rows[0].keys())
        widths = {
            k: max(len(k), *(len(_fmt(r.get(k))) for r in self.rows)) for k in keys
        }
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(k.ljust(widths[k]) for k in keys))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys)
            )
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
