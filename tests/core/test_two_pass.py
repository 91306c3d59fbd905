"""Tests for the two-pass decoder (the strategy the paper rejects)."""

import numpy as np
import pytest

from repro.accel import SIMULATED_SEARCH
from repro.asr.task import KALDI_VOXFORGE
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.core.two_pass import TwoPassDecoder
from repro.experiments.common import get_bundle

#: The ``ablation-two-pass`` exhibit's two-pass transcripts, one per
#: utterance of its ``KALDI_VOXFORGE`` bundle, as the first pass's own
#: frame loop produced them before it ran on the shared frame step.
ABLATION_WORDS = [
    ["vu", "jagvu", "riluvni", "ri", "kokrajso", "puca", "halosa"],
    ["vu", "jagvu", "riluvni", "wo"],
    ["vu", "jagvu", "te", "te", "vu", "wo", "kijwo", "pel", "lomo"],
    ["vu", "jagvu", "ge", "nu", "juh", "wo", "kijwo", "pel"],
    ["vu", "jagvu", "riluvni", "wo", "kijwo", "pel", "je"],
    ["vu", "jagvu", "riluvni", "jagvu", "te", "vu", "jagvu", "te"],
    ["vu", "jagvu", "riluvni", "vu", "jagvu", "riluvni", "ri", "kokrajso"],
    ["vu"],
]


@pytest.fixture(scope="module")
def two_pass(tiny_task):
    return TwoPassDecoder(
        tiny_task.am,
        tiny_task.lm,
        tiny_task.ngram,
        DecoderConfig(beam=14.0),
    )


@pytest.fixture(scope="module")
def one_pass(tiny_task):
    return OnTheFlyDecoder(tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0))


class TestTwoPass:
    def test_decodes_clean_speech(self, tiny_task, tiny_scorer, two_pass):
        from repro.asr.wer import word_error_rate

        utts = tiny_task.test_set(8, max_words=4)
        hyps = [
            two_pass.decode(tiny_scorer.score(utt.features)).words for utt in utts
        ]
        # The lattice approximation costs some accuracy, but clean speech
        # must still be substantially recovered.
        assert word_error_rate([u.words for u in utts], hyps) < 0.4

    def test_accuracy_comparable_to_one_pass(
        self, two_pass, one_pass, tiny_task, tiny_scorer
    ):
        """Two-pass accuracy trails one-pass but stays in its vicinity.

        The first pass keeps only the Viterbi-best token per AM state,
        so the lattice loses alternatives the one-pass search would have
        rescored in flight — exactly the approximation cost that (with
        its latency) made the paper pick one-pass.
        """
        from repro.asr.wer import word_error_rate

        utts = tiny_task.test_set(8, max_words=4)
        refs = [u.words for u in utts]
        one = [one_pass.decode(tiny_scorer.score(u.features)).words for u in utts]
        two = [two_pass.decode(tiny_scorer.score(u.features)).words for u in utts]
        one_wer = word_error_rate(refs, one)
        two_wer = word_error_rate(refs, two)
        assert two_wer <= one_wer + 0.5

    def test_first_pass_produces_lattice(self, two_pass, tiny_scores):
        lattice, finals, stats = two_pass.first_pass(tiny_scores[0])
        assert len(lattice) > 0
        assert stats.lattice_nodes == len(lattice)
        assert finals, "first pass must reach word boundaries"
        assert stats.first_pass.expansions > 0

    def test_rescoring_counts_paths(self, two_pass, tiny_scores):
        result = two_pass.decode(tiny_scores[0])
        del result
        lattice, finals, stats = two_pass.first_pass(tiny_scores[0])
        two_pass.rescore(lattice, finals, stats)
        assert stats.lattice_paths_rescored == len(finals)

    def test_rescoring_improves_on_unigram_ranking(
        self, tiny_task, two_pass, tiny_scorer
    ):
        """Full-LM rescoring must never pick a worse path than pass one
        believes best under the true model."""
        utt = tiny_task.test_set(1, max_words=4)[0]
        scores = tiny_scorer.score(utt.features)
        lattice, finals, stats = two_pass.first_pass(scores)
        words, cost = two_pass.rescore(lattice, finals, stats)
        assert np.isfinite(cost) or not finals

    def test_first_pass_keeps_at_most_one_final(
        self, tiny_task, tiny_scorer, two_pass
    ):
        """One token per AM state on a one-state LM: at most one
        hypothesis ends the utterance, so one path is rescored."""
        for utt in tiny_task.test_set(8, max_words=4):
            _, finals, _ = two_pass.first_pass(tiny_scorer.score(utt.features))
            assert len(finals) <= 1

    def test_nbest_is_the_rescored_path(self, tiny_task, tiny_scorer, two_pass):
        for utt in tiny_task.test_set(8, max_words=4):
            result = two_pass.decode(tiny_scorer.score(utt.features))
            assert result.success
            assert result.nbest(1) == [(result.cost, result.word_ids)]

    def test_ablation_transcripts_are_pinned(self):
        bundle = get_bundle(KALDI_VOXFORGE)
        decoder = TwoPassDecoder(
            bundle.task.am,
            bundle.task.lm,
            bundle.task.ngram,
            SIMULATED_SEARCH,
        )
        assert [decoder.decode(s).words for s in bundle.scores] == ABLATION_WORDS

    def test_bad_scores_rejected(self, two_pass):
        with pytest.raises(ValueError):
            two_pass.decode(np.zeros((5,)))
