"""Section 5.3: UNFOLD 'supports any grammar (bigram, trigram, pentagram...)'.

The same decoder hardware must work for every n-gram order: only the LM
WFST changes.  These tests build tasks at orders 1, 2, 3 and 4 and run
the full decode path on each.
"""

import numpy as np
import pytest

from repro.am import GmmAcousticModel
from repro.asr import build_task
from repro.asr.task import TINY
from repro.core import DecoderConfig, FullyComposedDecoder, OnTheFlyDecoder


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def ordered_task(request):
    config = TINY.with_overrides(
        name=f"tiny-{request.param}gram",
        lm_order=request.param,
        lm_cutoffs=(1,) * request.param,
        corpus_sentences=150,
    )
    return build_task(config)


@pytest.fixture(scope="module")
def ordered_scorer(ordered_task):
    return GmmAcousticModel.from_emissions(ordered_task.emissions, num_mixtures=1)


class TestGrammarOrders:
    def test_lm_levels_match_order(self, ordered_task):
        levels = ordered_task.lm.num_states_by_level()
        assert max(levels) == ordered_task.config.lm_order - 1

    def test_decoding_works(self, ordered_task, ordered_scorer):
        decoder = OnTheFlyDecoder(
            ordered_task.am, ordered_task.lm, DecoderConfig(beam=14.0)
        )
        utterances = ordered_task.test_set(4, max_words=4)
        correct = 0
        for utterance in utterances:
            result = decoder.decode(ordered_scorer.score(utterance.features))
            assert result.success
            if result.words == utterance.words:
                correct += 1
        assert correct >= 2

    def test_equivalent_to_composed_baseline(self, ordered_task, ordered_scorer):
        config = DecoderConfig(beam=12.0, preemptive_pruning=False)
        onthefly = OnTheFlyDecoder(ordered_task.am, ordered_task.lm, config)
        baseline = FullyComposedDecoder(ordered_task.am, ordered_task.lm, config)
        utterance = ordered_task.test_set(1, max_words=4)[0]
        scores = ordered_scorer.score(utterance.features)
        a = onthefly.decode(scores)
        b = baseline.decode(scores)
        assert a.words == b.words
        if a.success:
            assert a.cost == pytest.approx(b.cost, rel=1e-9)

    def test_backoff_chain_depth_bounded_by_order(self, ordered_task):
        """A back-off walk can descend at most order-1 levels."""
        from repro.core import LmLookup, LookupStrategy

        lookup = LmLookup(ordered_task.lm, strategy=LookupStrategy.BINARY)
        max_levels = 0
        for state in range(ordered_task.lm.fst.num_states):
            for word in ordered_task.grammar.vocabulary[:5]:
                result = lookup.resolve(state, ordered_task.lm.word_id(word))
                max_levels = max(max_levels, result.backoff_levels)
        assert max_levels <= ordered_task.config.lm_order - 1


class TestCliSmoke:
    def test_sizes_command(self, capsys):
        from repro.cli import main

        assert main(["sizes", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "reduction" in out

    def test_decode_command(self, capsys):
        from repro.cli import main

        assert main(["decode", "tiny", "--utterances", "2"]) == 0
        out = capsys.readouterr().out
        assert "WER" in out

    def test_unknown_task_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["decode", "nope"])
