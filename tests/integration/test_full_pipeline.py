"""End-to-end integration: the whole paper's story on one small task.

Build a task, train its scorer, decode on all three platforms, compress
both representations, and check every headline relationship in one
place.  This is the repository's README, executed.
"""

import pytest

from repro.accel import (
    REZA,
    UNFOLD,
    FullyComposedSimulator,
    GpuModel,
    UnfoldSimulator,
)
from repro.asr import build_scorer, build_task
from repro.asr.task import KALDI_VOXFORGE
from repro.asr.wer import word_error_rate
from repro.compress import measure_dataset_sizing


@pytest.fixture(scope="module")
def pipeline():
    config = KALDI_VOXFORGE.with_overrides(
        name="integration-voxforge", vocab_size=80, corpus_sentences=800
    )
    task = build_task(config)
    scorer = build_scorer(task, oracle_gmm=True)
    utterances = task.test_set(6, max_words=5)
    scores = [scorer.score(u.features) for u in utterances]
    sizing = measure_dataset_sizing(task)
    factor = 1 / 8
    unfold = UnfoldSimulator(task, config=UNFOLD.scaled(factor)).run(scores)
    reza = FullyComposedSimulator(task, config=REZA.scaled(factor)).run(scores)
    gpu = GpuModel().search_run_report(unfold)
    return task, utterances, sizing, unfold, reza, gpu


class TestFullPipeline:
    def test_storage_story(self, pipeline):
        """On-the-fly + compression crushes the composed graph (Fig 8)."""
        *_, sizing, _, _, _ = pipeline[:6]
        sizing = pipeline[2]
        assert sizing.unfold_reduction > 10
        assert sizing.onthefly_comp_bytes < sizing.composed_comp_bytes

    def test_recognition_story(self, pipeline):
        """Both accelerators decode identically and accurately (Table 6)."""
        _, utterances, _, unfold, reza, _ = pipeline
        refs = [u.words for u in utterances]
        unfold_wer = word_error_rate(refs, [r.words for r in unfold.results])
        reza_wer = word_error_rate(refs, [r.words for r in reza.results])
        assert unfold_wer == pytest.approx(reza_wer, abs=0.02)
        assert unfold_wer < 0.4

    def test_memory_traffic_story(self, pipeline):
        """UNFOLD moves less data off-chip (Fig 11)."""
        *_, unfold, reza, _ = pipeline
        assert sum(unfold.dram_bytes_by_class.values()) < sum(
            reza.dram_bytes_by_class.values()
        )

    def test_energy_story(self, pipeline):
        """GPU >> accelerators; UNFOLD <= baseline (Fig 9)."""
        *_, unfold, reza, gpu = pipeline
        assert gpu.energy_mj_per_speech_second > unfold.energy_mj_per_speech_second
        assert (
            unfold.energy_mj_per_speech_second
            <= reza.energy_mj_per_speech_second * 1.1
        )

    def test_realtime_story(self, pipeline):
        """Everything is faster than real time; accelerators by a lot."""
        *_, unfold, reza, gpu = pipeline
        assert gpu.realtime_factor > 1
        assert unfold.realtime_factor > 20
        assert reza.realtime_factor > 20

    def test_area_story(self, pipeline):
        """UNFOLD is the smaller design (Section 5.1: 16% smaller)."""
        *_, unfold, reza, _ = pipeline
        assert unfold.area_mm2 < reza.area_mm2
