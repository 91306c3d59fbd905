"""Vectorized hot-loop equivalence: outputs, counters, and traces.

The vectorized expansion (:mod:`repro.core.arcs`) must be an *exact*
replay of the scalar reference — identical transcripts and costs, but
also identical ``DecoderStats`` counters, since those feed the
accelerator models.  These tests pin that contract:

* a hypothesis sweep over random small tasks asserting scalar ==
  vectorized for both decoders;
* ``plan_recombination`` checked against a brute-force sequential
  replay of ``TokenTable.insert`` semantics (and its ``key_bound``
  fallback against the packed sort), the key index ``SoaTokenTable``
  derives from a plan on demand, ``stable_cost_order`` against numpy's
  stable argsort, and ``_csr_gather`` against
  the per-state walk it replaces;
* the traced-fallback rule: attaching a real ``TraceSink`` routes
  decoding through the scalar path, so traced runs see the same event
  stream the simulators were validated against.
"""

import math
from collections import Counter

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
    plan_recombination,
)
from repro.core.arcs import _csr_gather, stable_cost_order
from repro.core.tokens import SoaTokenTable, TokenTable, _iota
from tests.core.test_lm_walk import without_model

_TASK_CACHE: dict[int, tuple] = {}


def _task(seed: int):
    if seed not in _TASK_CACHE:
        config = TINY.with_overrides(
            name=f"tiny-vec-{seed}", seed=seed, vocab_size=10, corpus_sentences=80
        )
        task = build_task(config)
        scorer = GmmAcousticModel.from_emissions(
            task.emissions, num_mixtures=1, noise_scale=task.config.noise_scale
        )
        _TASK_CACHE[seed] = (task, scorer)
    return _TASK_CACHE[seed]


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=6.0, max_value=18.0),
    st.sampled_from([0, 5, 800]),
    st.integers(min_value=0, max_value=10_000),
)
def test_vectorized_equals_scalar(task_seed, beam, max_active, utt_seed):
    task, scorer = _task(task_seed)
    rng = np.random.default_rng(utt_seed)
    words = [
        task.grammar.vocabulary[int(rng.integers(0, len(task.grammar.vocabulary)))]
        for _ in range(int(rng.integers(1, 4)))
    ]
    scores = scorer.score(task.synthesizer.synthesize(words).features)

    def config(vectorized):
        return DecoderConfig(
            beam=beam, max_active=max_active, vectorized=vectorized
        )

    for make in (
        lambda v: OnTheFlyDecoder(task.am, task.lm, config(v)),
        lambda v: FullyComposedDecoder(task.am, task.lm, config(v)),
    ):
        scalar = make(False).decode(scores)
        vectorized = make(True).decode(scores)
        assert vectorized.word_ids == scalar.word_ids
        assert vectorized.words == scalar.words
        assert vectorized.cost == scalar.cost
        assert vectorized.finals == scalar.finals
        assert vectorized.stats == scalar.stats


def _replay(keys, costs):
    """Brute-force sequential TokenTable.insert semantics."""
    best: dict[int, float] = {}
    owner: dict[int, int] = {}
    inserts = improvements = recombinations = 0
    for i, (key, cost) in enumerate(zip(keys, costs)):
        if key not in best:
            best[key] = cost
            owner[key] = i
            inserts += 1
        elif cost < best[key]:
            best[key] = cost
            owner[key] = i
            improvements += 1
        else:
            recombinations += 1
    first_arrival = list(best)  # dict insertion order
    winners = [owner[key] for key in first_arrival]
    return winners, first_arrival, inserts, improvements, recombinations


#: Ties, both zeros (``-0.0 < 0.0`` is false: a recombination),
#: subnormals, a negative and an infinity — whatever the scalar
#: ``insert`` can be handed short of NaN.
_COSTS = [0.0, -0.0, 5e-324, 2.5e-320, 1.0, 1.5, 2.0, 3.0, -1.0, math.inf]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            # Skewed: key 0 collects a third of a batch, so groups of
            # nine and more candidates (three and more scan passes) are
            # routine, next to singletons and pairs.
            st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7]),
            st.sampled_from(_COSTS),
        ),
        min_size=1,
        max_size=60,
    )
)
# A 17-wide group improving at every arrival (four passes, each one
# needed), and one whose only improvement is its last arrival.
@example([(3, float(17 - i)) for i in range(17)] + [(1, 0.0)])
@example([(0, 1.0)] * 11 + [(0, 0.5), (2, math.inf), (2, math.inf)])
def test_plan_recombination_matches_sequential_replay(batch):
    keys = np.array([k for k, _ in batch], dtype=np.int64)
    costs = np.array([c for _, c in batch], dtype=np.float64)
    plan = plan_recombination(keys, costs, 8)
    winners, first_arrival, inserts, improvements, recombinations = _replay(
        keys.tolist(), costs.tolist()
    )
    assert plan.winners.tolist() == winners
    assert plan.inserts == inserts
    assert plan.improvements == improvements
    assert plan.recombinations == recombinations
    assert plan.sorted_keys.tolist() == sorted(keys.tolist())
    # The on-demand index: the distinct keys ascending, and slots
    # mapping each back to its first-arrival position (the token's slot
    # in the SoA table).
    table = _filled_table(plan, keys, costs, num_lm=3)
    assert table._key_index is None  # nothing derived at fill time
    distinct, slots = table.key_index()
    assert distinct.tolist() == sorted(set(keys.tolist()))
    assert [first_arrival[int(slot)] for slot in slots] == distinct.tolist()
    assert table.key_index() is table.key_index()  # derived once


def _filled_table(plan, keys, costs, num_lm):
    """The :class:`SoaTokenTable` a kernel frame fills from ``plan``
    (the winners' node is their arrival index)."""
    table = SoaTokenTable(num_lm)
    winners = plan.winners
    table.bulk_fill(
        keys[winners] // num_lm,
        keys[winners] % num_lm,
        costs[winners],
        winners.copy(),
        plan.sorted_keys,
        plan.group_starts,
        plan.first_arrival,
        plan.improvements,
        plan.recombinations,
    )
    return table


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
    st.data(),
)
def test_csr_gather_matches_per_state_expansion(degrees, data):
    """Against the scalar loops' own walk: every state's arc slice, in
    ``states`` order — zero-arc states, repeats, one state, none."""
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    states = np.array(
        data.draw(
            st.lists(st.integers(0, len(degrees) - 1), min_size=0, max_size=20)
        ),
        dtype=np.int64,
    )
    token_index, flat = _csr_gather(offsets, states)
    expected = [
        (position, arc)
        for position, state in enumerate(states.tolist())
        for arc in range(int(offsets[state]), int(offsets[state + 1]))
    ]
    assert list(zip(token_index.tolist(), flat.tolist())) == expected
    assert token_index.dtype == flat.dtype == np.int64


def test_shared_iota_is_read_only():
    """The kernels slice one shared ``0, 1, 2, ...`` column: a stray
    in-place write must raise, not corrupt every later frame."""
    iota = _iota(10)
    assert iota.tolist() == list(range(10))
    with pytest.raises(ValueError, match="read-only"):
        iota += 1
    with pytest.raises(ValueError, match="read-only"):
        _iota(100_000)[5] = 0  # a regrown column is read-only too
    assert _iota(10).tolist() == list(range(10))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from([1.0, 2.0, 3.0])),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from([0.5, 5.0])),
        min_size=1,
        max_size=12,
    ),
)
@example([(9, 1.0), (3, 2.0), (9, 3.0), (12, 1.0)], [(9, 0.5), (4, 5.0)])
def test_slot_hints_inside_the_winners_key_range(batch, arrivals):
    """An epsilon arrival whose key lies inside the bulk winners' key
    range: the hints equal a ``searchsorted`` over the winners' keys,
    the key index is derived exactly when such a search is needed, and
    ``insert_hinted`` recombines into the right slot — the table ends as
    a ``TokenTable`` fed the same inserts does."""
    num_lm = 4
    keys = np.array([k for k, _ in batch], dtype=np.int64)
    costs = np.array([c for _, c in batch], dtype=np.float64)
    plan = plan_recombination(keys, costs, 31)
    table = _filled_table(plan, keys, costs, num_lm)
    wanted = [k for k, _ in arrivals]
    hints = table.base_slot_hints(wanted)

    winner_keys = keys[plan.winners]  # slot order
    order = np.argsort(winner_keys)
    ordered = winner_keys[order]
    pos = np.minimum(np.searchsorted(ordered, wanted), ordered.shape[0] - 1)
    assert hints == np.where(ordered[pos] == wanted, order[pos], -1).tolist()
    in_range = min(wanted) <= ordered[-1] and max(wanted) >= ordered[0]
    assert (table._key_index is not None) == in_range

    reference = TokenTable()
    for node, (key, cost) in enumerate(batch):
        reference.insert(key // num_lm, key % num_lm, cost, node)
    for node, ((key, cost), hint) in enumerate(zip(arrivals, hints), 100):
        survived = table.insert_hinted(
            key // num_lm, key % num_lm, cost, node, hint
        )
        assert survived == reference.insert(
            key // num_lm, key % num_lm, cost, node
        )
    for got, want in zip(table.columns(), reference.columns()):
        np.testing.assert_array_equal(got, want)
    assert (table.inserts, table.improvements, table.recombinations) == (
        reference.inserts, reference.improvements, reference.recombinations
    )
    assert table.best_cost == reference.best_cost


def test_plan_recombination_rejects_empty_batch():
    with pytest.raises(ValueError):
        plan_recombination(
            np.array([], dtype=np.int64), np.array([], dtype=np.float64), 1
        )


def _assert_same_plan(a, b, key_shift=0):
    np.testing.assert_array_equal(a.winners, b.winners)
    np.testing.assert_array_equal(a.sorted_keys - key_shift, b.sorted_keys)
    np.testing.assert_array_equal(a.group_starts, b.group_starts)
    np.testing.assert_array_equal(a.first_arrival, b.first_arrival)
    assert a.inserts == b.inserts
    assert a.improvements == b.improvements
    assert a.recombinations == b.recombinations


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 300))
def test_plan_recombination_encoded_order_parity(seed, size):
    """The encoded introsort and its int64-overflow fallback (numpy's
    stable sort, taken when a key below ``key_bound`` might not fit
    ``key << bits``) build identical plans.  The fallback is chosen
    from the bound alone: the same keys under a bound too large to pack
    take it, and so do keys shifted by 2**62, which change nothing but
    ``sorted_keys``, by that constant."""
    from unittest import mock

    from repro.core import arcs

    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 40, size=size).astype(np.int64)
    costs = np.round(rng.uniform(0.0, 6.0, size=size), 1)
    shift = np.int64(1) << np.int64(62)
    bits = int(size - 1).bit_length()
    assert 40 <= (1 << (62 - bits)) <= int(shift)
    with mock.patch.object(arcs.np, "argsort", wraps=np.argsort) as argsort:
        fast = plan_recombination(keys, costs, 40)
        assert argsort.call_count == 0
        loose = plan_recombination(keys, costs, int(shift) + 1)
        assert argsort.call_count == 1
        plain = plan_recombination(keys + shift, costs, int(shift) + 40)
        assert argsort.call_count == 2
    _assert_same_plan(loose, fast)
    _assert_same_plan(plain, fast, key_shift=shift)


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


class CountingSink:
    """A real TraceSink that tallies every event it receives."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def on_state_fetch(self, side, state):
        self.counts["state_fetch", side] += 1

    def on_arc_fetch(self, side, state, ordinal):
        self.counts["arc_fetch", side] += 1

    def on_token_write(self):
        self.counts["token_write"] += 1

    def on_token_hash_access(self, am_state, lm_state):
        self.counts["token_hash"] += 1

    def on_olt_access(self, lm_state, word_id, hit):
        self.counts["olt", hit] += 1

    def on_frame_end(self, frame, active_tokens):
        self.counts["frame_end"] += 1
        self.counts["active_tokens"] += active_tokens


@pytest.mark.parametrize("decoder_name", ["on-the-fly", "fully-composed"])
def test_trace_sink_forces_scalar_path(tiny_task, tiny_scores, decoder_name):
    """A traced run must emit the scalar reference's exact event stream
    even when the config asks for vectorization; an untraced run counts
    all but the lookup model's counters alike."""

    def make(vectorized, sink=None):
        config = DecoderConfig(beam=14.0, vectorized=vectorized)
        if decoder_name == "on-the-fly":
            return OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config, sink=sink)
        return FullyComposedDecoder(
            tiny_task.am, tiny_task.lm, config, sink=sink
        )

    scores = tiny_scores[0]
    plain = make(True).decode(scores)
    vec_sink, scalar_sink = CountingSink(), CountingSink()
    traced_vec = make(True, sink=vec_sink).decode(scores)
    traced_scalar = make(False, sink=scalar_sink).decode(scores)

    assert vec_sink.counts == scalar_sink.counts
    assert vec_sink.counts["frame_end"] == scores.shape[0]
    assert traced_vec.words == traced_scalar.words == plain.words
    assert traced_vec.cost == traced_scalar.cost == plain.cost
    assert traced_vec.stats == traced_scalar.stats
    assert plain.stats == without_model(traced_vec.stats)
