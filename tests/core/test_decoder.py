"""Decoder correctness: recognition accuracy and cross-decoder equivalence."""

import math

import pytest

from repro.core import (
    DecoderConfig,
    FullyComposedDecoder,
    LookupStrategy,
    OnTheFlyDecoder,
    TokenTable,
)
from tests.core.oracle import ComposedViterbi
from tests.core.test_scalar_frame_body import RecordingSink


@pytest.fixture(scope="module")
def config():
    return DecoderConfig(beam=14.0, preemptive_pruning=False)


@pytest.fixture(scope="module")
def onthefly(tiny_task, config):
    return OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)


@pytest.fixture(scope="module")
def baseline(tiny_task, config):
    return FullyComposedDecoder(tiny_task.am, tiny_task.lm, config)


class TestRecognition:
    def test_clean_speech_recovered(self, tiny_task, tiny_scorer, onthefly):
        """With accurate scores and low noise, transcripts are recovered."""
        correct = 0
        utterances = tiny_task.test_set(8, max_words=4)
        for utt in utterances:
            result = onthefly.decode(tiny_scorer.score(utt.features))
            assert result.success
            if result.words == utt.words:
                correct += 1
        assert correct >= 6  # small residual confusability is expected

    def test_decode_result_structure(self, onthefly, tiny_scores, tiny_utterances):
        result = onthefly.decode(tiny_scores[0])
        assert result.success
        assert len(result.words) == len(result.word_ids)
        assert result.stats.frames == tiny_utterances[0].num_frames
        assert result.stats.words_emitted >= len(result.words)
        assert len(result.lattice) == result.stats.words_emitted

    def test_stats_populated(self, onthefly, tiny_scores):
        result = onthefly.decode(tiny_scores[0])
        stats = result.stats
        assert stats.tokens_created > 0
        assert stats.am_state_fetches > 0
        assert stats.expansions > stats.am_state_fetches
        assert stats.lookup.lookups > 0
        assert stats.avg_active_tokens > 1
        assert len(stats.active_history) == stats.frames

    def test_bad_score_matrix_rejected(self, onthefly):
        import numpy as np

        with pytest.raises(ValueError):
            onthefly.decode(np.zeros((10,)))
        with pytest.raises(ValueError):
            onthefly.decode(np.zeros((10, 2)))

    def test_tight_beam_degrades_gracefully(self, tiny_task, tiny_scores):
        tight = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=0.5)
        )
        result = tight.decode(tiny_scores[0])
        # May fail to reach a final state, but must not crash and must
        # prune heavily.
        assert result.stats.beam_pruned > 0

    def test_max_active_bounds_frontier(self, tiny_task, tiny_scores):
        capped = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=20.0, max_active=12, preemptive_pruning=False),
        )
        result = capped.decode(tiny_scores[0])
        # The frontier after expansion can exceed the cap, but the
        # number of expanded tokens per frame cannot: check via fetches.
        assert result.stats.am_state_fetches <= 12 * result.stats.frames


class TestEquivalence:
    """On-the-fly composition must match the fully-composed baseline.

    This is the paper's central correctness claim (Section 5.1): the
    dynamic composition changes *where* the LM weight is applied, not
    the search outcome.
    """

    def test_same_words_and_costs(self, onthefly, baseline, tiny_scores):
        for scores in tiny_scores:
            ours = onthefly.decode(scores)
            ref = baseline.decode(scores)
            assert ours.words == ref.words
            if ours.success and ref.success:
                assert ours.cost == pytest.approx(ref.cost, rel=1e-9)

    def test_same_search_effort(self, onthefly, baseline, tiny_scores):
        """Both decoders explore the same (am, lm) pair space."""
        ours = onthefly.decode(tiny_scores[0])
        ref = baseline.decode(tiny_scores[0])
        assert ours.stats.tokens_created == ref.stats.tokens_created
        assert ours.stats.expansions == ref.stats.expansions
        assert ours.stats.active_history == ref.stats.active_history

    def test_preemptive_pruning_preserves_result(self, tiny_task, tiny_scores):
        """Section 3.3: only hypotheses that would be pruned anyway die."""
        base = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=10.0, preemptive_pruning=False),
        )
        pre = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=10.0, preemptive_pruning=True),
        )
        for scores in tiny_scores:
            a = base.decode(scores)
            b = pre.decode(scores)
            assert a.words == b.words
            if a.success:
                assert a.cost == pytest.approx(b.cost, rel=1e-9)

    def test_lookup_strategies_do_not_change_result(self, tiny_task, tiny_scores):
        results = []
        for strategy in LookupStrategy:
            decoder = OnTheFlyDecoder(
                tiny_task.am,
                tiny_task.lm,
                DecoderConfig(
                    beam=12.0, lookup_strategy=strategy, preemptive_pruning=False
                ),
            )
            results.append(decoder.decode(tiny_scores[1]))
        words = {tuple(r.words) for r in results}
        costs = {round(r.cost, 9) for r in results}
        assert len(words) == 1
        assert len(costs) == 1


#: The search with nothing pruned: the exhaustive optimum is its result.
UNPRUNED = DecoderConfig(beam=1e30, max_active=0, preemptive_pruning=False)


class TestVirtualComposedGraph:
    """The baseline searches AM ∘ LM without a composed graph: its ids,
    finals and costs are the materialized composition's."""

    def test_matches_materialized_composition(
        self, tiny_task, tiny_scores
    ):
        """Unpruned, the composed decoder's best cost is the exhaustive
        Viterbi optimum of ``wfst.compose``'s graph exactly, and the
        on-the-fly decoder's equals it up to summation order; a beam
        never beats it."""
        am, lm = tiny_task.am, tiny_task.lm
        oracle = ComposedViterbi(am, lm)
        composed = FullyComposedDecoder(am, lm, UNPRUNED)
        onthefly = OnTheFlyDecoder(am, lm, UNPRUNED)
        beamed = (
            FullyComposedDecoder(am, lm, DecoderConfig(beam=12.0)),
            OnTheFlyDecoder(am, lm, DecoderConfig(beam=12.0)),
        )
        for scores in tiny_scores:
            best = oracle.best_cost(scores)
            assert math.isfinite(best)
            assert composed.decode(scores).cost == best
            assert onthefly.decode(scores).cost == pytest.approx(best, rel=1e-9)
            for decoder in beamed:
                assert decoder.decode(scores).cost >= best - 1e-9

    def test_encode_decode_round_trip(self, tiny_task, baseline):
        """A traced composed id names its (AM, LM) pair's record in the
        baseline's layout."""
        from repro.accel.layout import ComposedLayout

        layout = ComposedLayout.build(tiny_task)
        num_lm = tiny_task.lm.fst.num_states
        for am_state in (0, 1, tiny_task.am.fst.num_states - 1):
            for lm_state in (0, num_lm - 1):
                traced = baseline._trace_state(am_state, lm_state)
                assert divmod(traced, num_lm) == (am_state, lm_state)
                address, _ = layout.state_record(traced, num_lm)
                assert address == layout.address_map.state_address(
                    am_state, lm_state
                )

    def test_arcs_cached(self, baseline, tiny_scores):
        """A decoder is reusable: a second decode equals the first."""
        first = baseline.decode(tiny_scores[1])
        second = baseline.decode(tiny_scores[1])
        assert second.words == first.words
        assert second.cost == first.cost
        assert second.stats.expansions == first.stats.expansions
        assert second.stats.active_history == first.stats.active_history

    def test_final_only_at_loop_state(self, tiny_task, baseline):
        """A hypothesis ends only where both sides are final, at their
        summed final weight."""
        am, lm = tiny_task.am.fst, tiny_task.lm.fst
        table = TokenTable()
        pairs = [(a, l) for a in am.states() for l in lm.states()]
        for node, (am_state, lm_state) in enumerate(pairs):
            table.insert(am_state, lm_state, 0.0, node)
        finals = {
            pairs[node]: total
            for total, node in baseline._final_hypotheses(table)
        }
        assert finals == {
            (a, l): am.final_weight(a) + lm.final_weight(l)
            for a, l in pairs
            if am.is_final(a) and lm.is_final(l)
        }
        assert (tiny_task.am.loop_state, 0) in finals
        assert (1, 0) not in finals

    def test_num_states_bound(self, tiny_task, tiny_scores):
        """Traced ids stay inside the dense ``am × lm`` id space."""
        sink = RecordingSink()
        decoder = FullyComposedDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0), sink=sink
        )
        decoder.decode(tiny_scores[0])
        states = [
            event[2]
            for event in sink.events
            if event[0] in ("state_fetch", "arc_fetch")
        ]
        bound = tiny_task.am.fst.num_states * tiny_task.lm.fst.num_states
        assert states
        assert 0 <= min(states) and max(states) < bound
