"""Decoder edge cases and robustness."""

import math

import numpy as np
import pytest

from repro.accel import LookupStrategy
from repro.core import DecoderConfig, OnTheFlyDecoder
from tests.core.sinks import ModelSink


@pytest.fixture(scope="module")
def decoder(tiny_task):
    return OnTheFlyDecoder(tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0))


class TestEdgeCases:
    def test_zero_frames(self, decoder, tiny_task):
        scores = np.zeros((0, tiny_task.num_senones))
        result = decoder.decode(scores)
        # The start token sits at the loop state; the empty hypothesis
        # is valid (its cost is the LM's start-context </s> weight).
        assert result.words == []
        assert result.stats.frames == 0

    def test_single_frame_cannot_finish_a_word(self, decoder, tiny_task):
        scores = np.zeros((1, tiny_task.num_senones))
        result = decoder.decode(scores)
        assert result.words == []
        assert result.stats.frames == 1

    def test_extra_senone_columns_tolerated(self, decoder, tiny_task, tiny_scores):
        padded = np.pad(tiny_scores[0], ((0, 0), (0, 3)))
        result = decoder.decode(padded)
        reference = decoder.decode(tiny_scores[0])
        assert result.words == reference.words

    def test_uniform_scores_prefer_lm(self, tiny_task):
        """With uninformative acoustics, output follows LM-likely paths."""
        decoder = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=25.0)
        )
        frames = 40
        scores = np.zeros((frames, tiny_task.num_senones))
        result = decoder.decode(scores)
        if result.success and result.words:
            for word in result.words:
                assert word in set(tiny_task.grammar.vocabulary)

    def test_decoder_reusable_across_utterances(self, decoder, tiny_scores):
        first = decoder.decode(tiny_scores[0])
        again = decoder.decode(tiny_scores[0])
        assert first.words == again.words
        assert first.cost == pytest.approx(again.cost)
        # Independent lattices per decode.
        assert first.lattice is not again.lattice

    def test_offset_table_warm_across_utterances(self, tiny_task, tiny_scores):
        # The OLT is the sink's: the lookup hardware's model.
        sink = ModelSink(tiny_task.lm, LookupStrategy.OFFSET_TABLE)
        decoder = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0), sink=sink
        )
        first = decoder.decode(tiny_scores[0])
        sink.model.settle(first.stats.lookup)
        second = decoder.decode(tiny_scores[0])
        sink.model.settle(second.stats.lookup)
        # Re-decoding the same utterance hits the (persistent) OLT; a
        # fresh sink starts cold.
        assert second.stats.lookup.olt_hit_ratio > 0.5
        assert first.stats.lookup.olt_hit_ratio < 0.5

    def test_lattice_consistent_with_words(self, decoder, tiny_scores):
        result = decoder.decode(tiny_scores[1])
        if result.success:
            assert len(result.word_ids) <= len(result.lattice)

    def test_cost_finite_only_on_success(self, decoder, tiny_scores):
        result = decoder.decode(tiny_scores[0])
        assert result.success == math.isfinite(result.cost)
