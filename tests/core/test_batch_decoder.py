"""Lockstep batched decoding: bit-parity with per-utterance decoding.

``BatchDecoder`` advances B utterances through one fused kernel per
frame.  Its contract is exactness, not approximation: transcripts,
costs, final hypotheses, lattices, every ``DecoderStats`` counter and
every per-utterance lookup counter (OLT hits/misses, expansion-cache
hits/misses/evictions, preemptive prunes) must be bit-identical to
decoding each utterance alone from cold caches — the
:class:`~repro.asr.parallel.DecodePool` reference semantics.  These
tests pin that contract across batch widths, ragged lengths,
zero-frame utterances, tight beams, tiny token caps, disabled
preemptive pruning, the scalar fallback, and random small tasks.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import GmmAcousticModel
from repro.asr import TINY, build_task
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.core.arcs import plan_recombination, stable_cost_order
from repro.core.batch import BatchDecoder, lockstep_supported

#: Lookup counters asserted by name: the expansion-cache fields carry
#: ``compare=False`` (they don't participate in LookupStats equality),
#: so stats equality alone would not cover them.
LOOKUP_COUNTERS = (
    "lookups",
    "arc_probes",
    "olt_hits",
    "olt_misses",
    "backoff_arcs_taken",
    "preemptive_prunes",
    "expansion_hits",
    "expansion_misses",
    "expansion_evictions",
)


def _lattice_nodes(lattice):
    return [
        (n.word, n.frame, n.cost, n.backpointer) for n in lattice.nodes
    ]


def _cold_reference(decoder, scores):
    results = []
    for matrix in scores:
        decoder.lookup.reset_transient_state()
        results.append(decoder.decode(matrix))
    return results


def _assert_identical(reference, batched, label=""):
    assert len(reference) == len(batched)
    for i, (ref, got) in enumerate(zip(reference, batched)):
        context = (label, i)
        assert ref.words == got.words, context
        assert ref.cost == got.cost, context
        assert ref.finals == got.finals, context
        assert _lattice_nodes(ref.lattice) == _lattice_nodes(got.lattice), (
            context
        )
        for f in dataclasses.fields(ref.stats):
            if f.name == "lookup":
                continue
            assert getattr(ref.stats, f.name) == getattr(got.stats, f.name), (
                *context,
                f.name,
            )
        for name in LOOKUP_COUNTERS:
            assert getattr(ref.stats.lookup, name) == getattr(
                got.stats.lookup, name
            ), (*context, f"lookup.{name}")


@pytest.fixture(scope="module")
def decoder(tiny_task):
    return OnTheFlyDecoder(
        tiny_task.am,
        tiny_task.lm,
        DecoderConfig(beam=14.0, max_active=800, vectorized=True),
    )


class TestBatchParity:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 8])
    def test_bit_identical_across_widths(
        self, decoder, tiny_scores, batch_size
    ):
        reference = _cold_reference(decoder, tiny_scores)
        batched = BatchDecoder(decoder, batch_size=batch_size).decode(
            tiny_scores
        )
        _assert_identical(reference, batched, f"B={batch_size}")
        assert all(
            r.strategy == f"batch[{batch_size}]" for r in batched
        )

    def test_ragged_lengths_and_zero_frames(self, decoder, tiny_scores):
        ragged = [
            s[: max(1, s.shape[0] // (i + 1))]
            for i, s in enumerate(tiny_scores)
        ]
        ragged[2] = ragged[2][:0]  # a zero-frame utterance mid-batch
        reference = _cold_reference(decoder, ragged)
        batched = BatchDecoder(decoder, batch_size=4).decode(ragged)
        _assert_identical(reference, batched, "ragged")

    def test_tight_beam_empties_frontiers(self, tiny_task, tiny_scores):
        tight = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=0.5, max_active=800, vectorized=True),
        )
        reference = _cold_reference(tight, tiny_scores)
        batched = BatchDecoder(tight, batch_size=8).decode(tiny_scores)
        _assert_identical(reference, batched, "tight-beam")

    def test_small_token_cap(self, tiny_task, tiny_scores):
        capped = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=14.0, max_active=5, vectorized=True),
        )
        reference = _cold_reference(capped, tiny_scores)
        batched = BatchDecoder(capped, batch_size=8).decode(tiny_scores)
        _assert_identical(reference, batched, "cap5")

    def test_no_preemptive_pruning(self, tiny_task, tiny_scores):
        plain = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(
                beam=14.0,
                max_active=800,
                vectorized=True,
                preemptive_pruning=False,
            ),
        )
        reference = _cold_reference(plain, tiny_scores)
        batched = BatchDecoder(plain, batch_size=8).decode(tiny_scores)
        _assert_identical(reference, batched, "no-preempt")

    def test_scalar_config_falls_back(self, tiny_task, tiny_scores):
        scalar = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=14.0, max_active=800, vectorized=False),
        )
        assert not lockstep_supported(scalar)
        reference = _cold_reference(scalar, tiny_scores)
        batch = BatchDecoder(scalar, batch_size=8)
        batched = batch.decode(tiny_scores)
        _assert_identical(reference, batched, "scalar-fallback")
        assert all(r.strategy == "serial" for r in batched)
        assert batch.kernel_calls == 0

    def test_kernel_call_count(self, decoder, tiny_scores):
        batch = BatchDecoder(decoder, batch_size=len(tiny_scores))
        batch.decode(tiny_scores)
        # One wave, one fused kernel call per lockstep frame: the
        # longest utterance's frame count.
        assert batch.kernel_calls == max(
            s.shape[0] for s in tiny_scores
        )

    def test_rejects_bad_inputs(self, decoder, tiny_scores):
        with pytest.raises(ValueError):
            BatchDecoder(decoder, batch_size=0)
        with pytest.raises(ValueError):
            BatchDecoder(decoder).decode([tiny_scores[0][:, :2]])


_TASK_CACHE: dict[int, tuple] = {}


def _task(seed: int):
    if seed not in _TASK_CACHE:
        config = TINY.with_overrides(
            name=f"tiny-batch-{seed}",
            seed=seed,
            vocab_size=10,
            corpus_sentences=80,
        )
        task = build_task(config)
        scorer = GmmAcousticModel.from_emissions(
            task.emissions,
            num_mixtures=1,
            noise_scale=task.config.noise_scale,
        )
        utterances = task.test_set(5, max_words=4)
        scores = [scorer.score(u.features) for u in utterances]
        _TASK_CACHE[seed] = (task, scores)
    return _TASK_CACHE[seed]


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=6.0, max_value=18.0),
    st.sampled_from([0, 5, 800]),
    st.integers(min_value=2, max_value=8),
)
def test_batched_equals_sequential_property(
    task_seed, beam, max_active, batch_size
):
    """Hypothesis sweep: random tasks, beams, caps and batch widths."""
    task, scores = _task(task_seed)
    decoder = OnTheFlyDecoder(
        task.am,
        task.lm,
        DecoderConfig(beam=beam, max_active=max_active, vectorized=True),
    )
    reference = _cold_reference(decoder, scores)
    batched = BatchDecoder(decoder, batch_size=batch_size).decode(scores)
    _assert_identical(reference, batched, "property")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 200))
def test_stable_cost_order_matches_stable_argsort(seed, size):
    """The packed value-sort float ordering == numpy's stable argsort."""
    rng = np.random.default_rng(seed)
    # Heavy ties: quantized values exercise the rank-encoding path.
    costs = np.round(rng.uniform(0.0, 4.0, size=size), 1)
    expected = np.argsort(costs, kind="stable")
    np.testing.assert_array_equal(stable_cost_order(costs), expected)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(2, 300),
    st.sampled_from(["packed", "negative", "minus-zero", "wide"]),
)
def test_stable_cost_order_takes_both_branches(seed, size, family):
    """Non-negative costs within a narrow range of bit patterns sort as
    packed integers with no ``argsort`` at all; a negative cost, a
    ``-0.0`` (equal to ``0.0``, different pattern) or a range too wide
    to pack falls back to ranks from exactly one.  Both equal numpy's
    stable order."""
    from unittest import mock

    from repro.core import arcs

    rng = np.random.default_rng(seed)
    # Heavy ties in every family; frame-like costs (a beam above 100).
    costs = 100.0 + np.round(rng.uniform(0.0, 14.0, size=size), 1)
    if family == "negative":
        costs -= 107.0
        costs[rng.integers(0, size)] = -3.5
    elif family == "minus-zero":
        costs -= 100.0
        costs[rng.integers(0, size, size=size // 2 + 1)] = -0.0
    elif family == "wide":
        # More than 2**(62 - bits) representable doubles apart.
        costs[rng.integers(0, size)] = 1e-300
        costs[rng.integers(0, size)] = np.inf
    expected = np.argsort(costs, kind="stable")
    with mock.patch.object(arcs.np, "argsort", wraps=np.argsort) as argsort:
        got = stable_cost_order(costs)
    np.testing.assert_array_equal(got, expected)
    assert argsort.call_count == (0 if family == "packed" else 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 300))
def test_plan_recombination_encoded_order_parity(seed, size):
    """The encoded introsort and its int64-overflow fallback (numpy's
    stable sort, taken when ``key << bits`` would not fit) build
    identical plans: shifting every key by a constant that forces the
    fallback changes nothing but ``sorted_keys``, by that constant."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 40, size=size).astype(np.int64)
    costs = np.round(rng.uniform(0.0, 6.0, size=size), 1)
    shift = np.int64(1) << np.int64(62)
    bits = int(size - 1).bit_length()
    assert int(keys.max()) < (1 << (62 - bits)) <= int(shift)
    fast = plan_recombination(keys, costs)
    plain = plan_recombination(keys + shift, costs)
    np.testing.assert_array_equal(plain.winners, fast.winners)
    np.testing.assert_array_equal(plain.sorted_keys - shift, fast.sorted_keys)
    np.testing.assert_array_equal(plain.slots, fast.slots)
    np.testing.assert_array_equal(
        plain.improved_sources, fast.improved_sources
    )
    assert plain.inserts == fast.inserts
    assert plain.improvements == fast.improvements
    assert plain.recombinations == fast.recombinations


@pytest.mark.skipif(
    not os.environ.get("REPRO_MEDIUM_TESTS"),
    reason="medium-preset parity is covered by the CI perf gates; "
    "set REPRO_MEDIUM_TESTS=1 to run it here too",
)
def test_medium_preset_batch_parity():
    from repro.experiments.common import MAX_ACTIVE, get_bundle
    from repro.experiments.perf_decode import BEAM, PRESETS

    bundle = get_bundle(PRESETS["medium"])
    decoder = OnTheFlyDecoder(
        bundle.task.am,
        bundle.task.lm,
        DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE, vectorized=True),
    )
    reference = _cold_reference(decoder, bundle.scores)
    batched = BatchDecoder(decoder, batch_size=8).decode(bundle.scores)
    _assert_identical(reference, batched, "medium")
