"""Property test: decoder equivalence across random small tasks.

The tiny-task equivalence tests pin one configuration; this sweeps
random task seeds and beams, asserting the paper's core correctness
property — the on-the-fly decoder and the fully-composed baseline
explore the same search space — on every sample, and checking both
against the exhaustive Viterbi optimum of the materialized composition
(``tests/core/oracle.py``).

Each example's utterance is a function of its draws alone: the words
and the synthesizer's noise come from one generator seeded by
``utt_seed``, so a failing example replays as it failed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.am import GmmAcousticModel
from repro.asr import TINY, build_task
from repro.core import (
    DecoderConfig,
    FullyComposedDecoder,
    OnTheFlyDecoder,
)
from tests.core.oracle import ComposedViterbi

_TASK_CACHE: dict[int, tuple] = {}


def _task(seed: int):
    if seed not in _TASK_CACHE:
        config = TINY.with_overrides(
            name=f"tiny-eq-{seed}", seed=seed, vocab_size=10, corpus_sentences=80
        )
        task = build_task(config)
        scorer = GmmAcousticModel.from_emissions(
            task.emissions, num_mixtures=1, noise_scale=task.config.noise_scale
        )
        _TASK_CACHE[seed] = (task, scorer, ComposedViterbi(task.am, task.lm))
    return _TASK_CACHE[seed]


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=6.0, max_value=18.0),
    st.integers(min_value=0, max_value=10_000),
)
# Saved by a failing run while the synthesizer's generator was shared
# by every example, so its scores then depended on the examples run
# before it.
@example(task_seed=4, beam=17.768408508309985, utt_seed=3682)
# The composed decoder one ulp off the oracle while ``wfst.compose``
# added a back-off arc's weights in another order.
@example(task_seed=4, beam=9.23376510930179, utt_seed=6513)
def test_equivalence_across_seeds_and_beams(task_seed, beam, utt_seed):
    task, scorer, oracle = _task(task_seed)
    rng = np.random.default_rng(utt_seed)
    words = [
        task.grammar.vocabulary[int(rng.integers(0, len(task.grammar.vocabulary)))]
        for _ in range(int(rng.integers(1, 4)))
    ]
    synthesizer = dataclasses.replace(task.synthesizer, rng=rng)
    utterance = synthesizer.synthesize(words)
    scores = scorer.score(utterance.features)

    config = DecoderConfig(beam=beam, preemptive_pruning=False)
    ours = OnTheFlyDecoder(task.am, task.lm, config).decode(scores)
    ref = FullyComposedDecoder(task.am, task.lm, config).decode(scores)

    assert ours.words == ref.words
    if ours.success and ref.success:
        assert ours.cost == pytest.approx(ref.cost, rel=1e-9)
    assert ours.stats.expansions == ref.stats.expansions

    # Against the exhaustive optimum: a beam never beats it, and with
    # nothing pruned both decoders reach it.
    best = oracle.best_cost(scores)
    assert ours.cost >= best - 1e-9 and ref.cost >= best - 1e-9
    unpruned = DecoderConfig(beam=1e30, max_active=0, preemptive_pruning=False)
    composed = FullyComposedDecoder(task.am, task.lm, unpruned)
    onthefly = OnTheFlyDecoder(task.am, task.lm, unpruned)
    assert composed.decode(scores).cost == best
    assert onthefly.decode(scores).cost == pytest.approx(best, rel=1e-9)
