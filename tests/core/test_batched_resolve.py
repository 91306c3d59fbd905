"""Batched LM resolution equivalence: resolve_batch vs scalar resolve.

The batched epsilon phase stands on ``LmLookup.resolve_batch`` being
an *exact* replay of per-item ``resolve`` calls — bit-identical
weights, the same back-off level counts, the same preemptive-pruning
decisions, and the same ``lookups`` and ``backoff_arcs_taken``.  The
reference is the traced walk, which models the lookup hardware (the
Offset Lookup Table and the probes); the batch walks plainly and
counts none of the model.  These tests pin that contract over
randomized LM graphs (with negative back-off penalties, which real
ARPA models have), every (state, word) pair of two presets, and an
aliased OLT entry pointing past its state's arcs; plus the LM expansion
cache's hit/evict accounting, the label lists forks share, the bound
on what resolving keeps (residency only), and the ``nonneg_weights``
gate the decoders consult.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import KALDI_LIBRISPEECH, KALDI_TEDLIUM, TINY, build_task
from repro.asr.streaming import StreamingSession
from repro.core import (
    DecoderConfig,
    LmLookup,
    LmWordArcs,
    LookupStrategy,
    NullSink,
    OnTheFlyDecoder,
    batch,
)
from repro.lm.graph import LmGraph
from repro.wfst.fst import SymbolTable, Wfst
from tests.core.test_lm_walk import unmodelled


def _random_lm(
    seed: int,
    vocab: int = 8,
    num_states: int = 6,
    negative_backoff: bool = False,
) -> LmGraph:
    """A random back-off LM graph honoring the construction invariants:

    word arcs ilabel-sorted, back-off arc last with a label above every
    word id, unigram state 0 holding all unigrams, back-off targets
    strictly below the source state (chains are acyclic by id order).
    """
    rng = np.random.default_rng(seed)
    words = SymbolTable("words")
    for w in range(1, vocab + 1):
        words.add(f"w{w}")
    backoff_label = words.add("#phi")

    fst = Wfst()
    fst.add_states(num_states)
    fst.start = 0
    for state in range(num_states):
        if state == 0:
            labels = np.arange(1, vocab + 1)
        else:
            count = int(rng.integers(0, vocab))
            labels = np.sort(
                rng.choice(np.arange(1, vocab + 1), size=count, replace=False)
            )
        for label in labels.tolist():
            fst.add_arc(
                state,
                ilabel=label,
                olabel=label,
                weight=round(float(rng.uniform(0.05, 5.0)), 3),
                nextstate=int(rng.integers(0, num_states)),
            )
        if state > 0:
            low = -0.8 if negative_backoff else 0.0
            fst.add_arc(
                state,
                ilabel=backoff_label,
                olabel=backoff_label,
                weight=round(float(rng.uniform(low, 2.0)), 3),
                nextstate=int(rng.integers(0, state)),
            )
        fst.set_final(state, 0.0)
    return LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[()] * num_states,
    )


def _model(graph, strategy, olt_entries=32 * 1024):
    """A traced lookup: its walk models the OLT and the probes."""
    return LmLookup(
        graph,
        strategy=strategy,
        offset_table_entries=olt_entries,
        sink=NullSink(),
    )


def _assert_batch_matches_scalar(
    graph, strategy, batches, preemptive, threshold, olt_entries
):
    scalar = _model(graph, strategy, olt_entries)
    plain = LmLookup(graph, strategy=strategy, offset_table_entries=olt_entries)
    batched = LmLookup(graph, strategy=strategy, offset_table_entries=olt_entries)
    for states, word_ids, entries in batches:
        expected = [
            scalar.resolve(
                int(s),
                int(w),
                entry_cost=float(e),
                threshold=threshold,
                preemptive=preemptive,
            )
            for s, w, e in zip(states, word_ids, entries)
        ]
        walked = [
            plain.resolve(
                int(s),
                int(w),
                entry_cost=float(e),
                threshold=threshold,
                preemptive=preemptive,
            )
            for s, w, e in zip(states, word_ids, entries)
        ]
        assert walked == expected
        got = batched.resolve_batch(
            states.tolist(),
            word_ids.tolist(),
            entries.tolist(),
            threshold=threshold,
            preemptive=preemptive,
        )
        for i, ref in enumerate(expected):
            assert got.weight[i] == ref.weight, (i, got.weight[i], ref.weight)
            assert int(got.next_state[i]) == ref.next_state
            assert bool(got.pruned[i]) == ref.pruned
            assert int(got.backoff_levels[i]) == ref.backoff_levels
        # Counter-for-counter equality but the model's (expansion_*
        # fields are compare=False: scalar has no expansion cache
        # activity).
        assert batched.stats == plain.stats == unmodelled(scalar.stats)
    # Only the traced walk keeps a table, and the batches exercised it.
    assert batched.offset_table is None
    if strategy is LookupStrategy.OFFSET_TABLE:
        assert scalar.offset_table._entries


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(list(LookupStrategy)),
    st.booleans(),
    st.booleans(),
    st.sampled_from([4, 32 * 1024]),
)
def test_resolve_batch_matches_scalar(
    seed, strategy, preemptive, negative_backoff, olt_entries
):
    graph = _random_lm(seed, negative_backoff=negative_backoff)
    rng = np.random.default_rng(seed + 1)
    num_states = graph.fst.num_states
    vocab = len(graph.words) - 2  # minus <eps> and #phi
    batches = []
    # From a handful of items to several hundred: 6 states x 8 words
    # leave the large batches full of repeated (state, word) pairs, so
    # within one batch OLT entries are hit again, and — slots are
    # ``state ^ word``, four of them in the small table — overwritten
    # by pairs that share a slot under another tag.
    for high in (20, 20, 400, 400):
        n = int(rng.integers(1, high))
        batches.append(
            (
                rng.integers(0, num_states, size=n).astype(np.int64),
                rng.integers(1, vocab + 1, size=n).astype(np.int64),
                rng.uniform(0.0, 10.0, size=n),
            )
        )
    threshold = float(rng.uniform(2.0, 12.0)) if preemptive else math.inf
    _assert_batch_matches_scalar(
        graph, strategy, batches, preemptive, threshold, olt_entries
    )


def _every_pair(graph):
    """Every (state, word) item of ``graph``, state-major."""
    num_states = graph.fst.num_states
    words = list(range(1, graph.backoff_label))
    return (
        [s for s in range(num_states) for _ in words],
        words * num_states,
    )


@pytest.mark.parametrize(
    "config, strategies",
    [
        (TINY, list(LookupStrategy)),
        (KALDI_LIBRISPEECH, [LookupStrategy.OFFSET_TABLE]),
    ],
    ids=["tiny", "kaldi-librispeech"],
)
def test_every_pair_matches_scalar(config, strategies):
    """Every word at every LM state of a preset: all strategies on the
    small one, the default (the OLT's) on the large one."""
    graph = build_task(config).lm
    states, word_ids = _every_pair(graph)
    items = (
        np.array(states, dtype=np.int64),
        np.array(word_ids, dtype=np.int64),
        np.zeros(len(states)),
    )
    for strategy in strategies:
        _assert_batch_matches_scalar(
            graph, strategy, [items], False, math.inf, 32 * 1024
        )


def _wide_unigram_lm(vocab: int = 320) -> LmGraph:
    """Unigram state 0 carries every word; two bigram states carry a
    few and back off to it."""
    words = SymbolTable("words")
    for w in range(1, vocab + 1):
        words.add(f"w{w}")
    backoff_label = words.add("#phi")
    fst = Wfst()
    fst.add_states(3)
    fst.start = 0
    rng = np.random.default_rng(3)
    for label in range(1, vocab + 1):
        fst.add_arc(
            0,
            ilabel=label,
            olabel=label,
            weight=round(float(rng.uniform(0.5, 9.0)), 3),
            nextstate=int(rng.integers(0, 3)),
        )
    for state, labels in ((1, (2, 150, 301)), (2, (7, 300))):
        for label in labels:
            fst.add_arc(state, label, label, 0.25 * label / vocab, 0)
        fst.add_arc(state, backoff_label, backoff_label, 0.5 * state, 0)
    for state in range(3):
        fst.set_final(state, 0.0)
    return LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[()] * 3,
    )


@pytest.mark.parametrize("strategy", list(LookupStrategy))
def test_wide_lm_matches_scalar(strategy):
    """Over 300 arcs at one state: a linear scan probes up to all of
    them, and every strategy's batch still matches scalar resolves."""
    graph = _wide_unigram_lm()
    states, word_ids = _every_pair(graph)
    scalar = _model(graph, strategy)
    lookup = LmLookup(graph, strategy=strategy)
    got = lookup.resolve_batch(states, word_ids, [0.0] * len(word_ids))
    for i, (s, w) in enumerate(zip(states, word_ids)):
        ref = scalar.resolve(s, w)
        assert got.weight[i].hex() == ref.weight.hex(), (s, w)
        assert got.next_state[i] == ref.next_state, (s, w)
        assert got.backoff_levels[i] == ref.backoff_levels, (s, w)
    assert lookup.stats == unmodelled(scalar.stats)
    if strategy is LookupStrategy.LINEAR:
        # State 2's scan for word 320 passes both its arcs, backs off
        # and passes all 320 unigram arcs.
        probe = _model(graph, strategy)
        probe.resolve(2, 320)
        assert probe.stats.arc_probes == 2 + 1 + 320


def test_out_of_range_olt_ordinal_is_a_miss_on_both_paths():
    """An aliased OLT entry holds another pair's ordinal, which can lie
    past the probed state's arcs (``(0, 6586)`` and ``(1, 49)`` share a
    slot and a tag in a one-entry table).  The traced walk pays the
    validation probe, misses, and searches; the batch, which keeps no
    table, finds the same result and counts the same lookups, at every
    (state, word) pair."""
    graph = _random_lm(17)
    num_states = graph.fst.num_states
    arc_counts = [
        len(graph.fst.out_arcs(s)) - (graph.backoff_arc(s) is not None)
        for s in range(num_states)
    ]
    states, word_ids = _every_pair(graph)
    for state, word in zip(states, word_ids):
        clean = _model(graph, LookupStrategy.OFFSET_TABLE)
        scalar = _model(graph, LookupStrategy.OFFSET_TABLE)
        batched = LmLookup(graph, strategy=LookupStrategy.OFFSET_TABLE)
        scalar.offset_table.insert(state, word, arc_counts[state] + 3)
        want = clean.resolve(state, word)
        ref = scalar.resolve(state, word)
        got = batched.resolve_batch([state], [word], [0.0])
        assert (ref.weight, ref.next_state) == (want.weight, want.next_state)
        assert got.weight[0] == ref.weight, (state, word)
        assert got.next_state[0] == ref.next_state, (state, word)
        assert got.backoff_levels[0] == ref.backoff_levels, (state, word)
        assert batched.stats == unmodelled(scalar.stats), (state, word)
        assert scalar.stats.arc_probes == clean.stats.arc_probes + 1
        assert scalar.stats.olt_hits == 0


def test_resolve_batch_olt_warm_hit_ratio():
    """Repeated items warm the traced walk's OLT; the batch counts the
    same lookups without one."""
    graph = _random_lm(7)
    scalar = _model(graph, LookupStrategy.OFFSET_TABLE)
    batched = LmLookup(graph, strategy=LookupStrategy.OFFSET_TABLE)
    states = [1, 2, 3, 1, 2, 3]
    word_ids = [1, 2, 3, 1, 2, 3]
    entries = [0.0] * 6
    for _ in range(3):
        for s, w in zip(states, word_ids):
            scalar.resolve(s, w)
        batched.resolve_batch(states, word_ids, entries)
    assert batched.stats == unmodelled(scalar.stats)
    assert scalar.stats.olt_hits > 0
    assert batched.stats.olt_hit_ratio == 0.0


def test_a_walk_at_the_threshold_goes_on():
    """Preemptive pruning drops a walk once its cost *exceeds* the
    threshold: where the first back-off penalty lands exactly on it,
    the batch walks on, as the traced walk does."""
    graph = _random_lm(7)
    model = _model(graph, LookupStrategy.BINARY)
    batched = LmLookup(graph, strategy=LookupStrategy.BINARY)
    ties = 0
    for state in range(1, graph.fst.num_states):
        penalty = graph.backoff_arc(state).weight
        labels = {arc.ilabel for arc in graph.fst.out_arcs(state)}
        for word in range(1, graph.backoff_label):
            if word in labels:
                continue
            want = model.resolve(
                state, word, threshold=penalty, preemptive=True
            )
            got = batched.resolve_batch(
                [state], [word], [0.0], threshold=penalty, preemptive=True
            )
            assert (
                got.weight[0], got.next_state[0], got.pruned[0],
                got.backoff_levels[0],
            ) == (
                want.weight, want.next_state, want.pruned,
                want.backoff_levels,
            ), (state, word)
            ties += not (want.pruned and want.backoff_levels == 1)
    assert ties
    assert batched.stats == unmodelled(model.stats)


def test_lookup_error_parity():
    """A word the unigram state lacks raises as the scalar call does."""
    graph = _random_lm(3, vocab=5)
    # Label 6 is within the symbol space (#phi) but not a word; use a
    # graph whose unigram state lacks a word instead: rebuild with a
    # hole by pointing at a fresh graph where word 5 is absent at 0.
    fst = Wfst()
    fst.add_states(2)
    fst.start = 0
    words = SymbolTable("words")
    for w in range(1, 5):
        words.add(f"w{w}")
    missing = words.add("w5")
    backoff_label = words.add("#phi")
    for label in range(1, 5):
        fst.add_arc(0, ilabel=label, olabel=label, weight=1.0, nextstate=0)
        fst.add_arc(1, ilabel=label, olabel=label, weight=1.0, nextstate=0)
    fst.add_arc(1, ilabel=backoff_label, olabel=backoff_label, weight=0.5, nextstate=0)
    fst.set_final(0, 0.0)
    fst.set_final(1, 0.0)
    graph = LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[(), ()],
    )
    scalar = LmLookup(graph, strategy=LookupStrategy.BINARY)
    batched = LmLookup(graph, strategy=LookupStrategy.BINARY)
    with pytest.raises(LookupError) as scalar_err:
        scalar.resolve(1, missing)
    with pytest.raises(LookupError) as batched_err:
        batched.resolve_batch([1], [missing], [0.0])
    assert str(batched_err.value) == str(scalar_err.value)
    # The walk to exhaustion is accounted before the raise, as the
    # scalar walk accounts it step by step.
    assert batched.stats == scalar.stats
    assert batched.stats.lookups == 2 and batched.stats.backoff_arcs_taken == 1


def _transient_state(lookup):
    """Counters and expansion residency (LRU order)."""
    return (
        dataclasses.asdict(lookup.stats),
        list(lookup.expansion_cache._resident),
    )


@pytest.mark.parametrize("bad_word", [-1, 10**6])
@pytest.mark.parametrize("position", [0, 2])
def test_bad_word_id_raises_before_anything_is_touched(bad_word, position):
    """Ids are validated for the whole batch up front: the items before
    the bad one must not have moved expansion residency or gone
    uncounted."""
    graph = _random_lm(13)
    lookup = LmLookup(
        graph,
        strategy=LookupStrategy.OFFSET_TABLE,
        offset_table_entries=4,
        expansion_cache_states=2,
    )
    lookup.resolve_batch([1, 2, 3], [1, 2, 3], [0.0, 0.0, 0.0])
    before = _transient_state(lookup)
    assert before[0]["lookups"] and before[1]
    words = [4, 5, 6]
    words[position] = bad_word
    with pytest.raises(ValueError, match="label space"):
        lookup.resolve_batch([5, 4, 1], words, [0.0, 0.0, 0.0])
    assert _transient_state(lookup) == before


@pytest.mark.parametrize(
    "states",
    [[-1], ["num_states"], [2, "num_states", 0], [1, -1, 3]],
    ids=["negative", "num_states", "mixed-high", "mixed-negative"],
)
def test_bad_lm_state_raises_before_anything_is_touched(tiny_task, states):
    """State ids are range-checked for the whole batch up front, as word
    ids are: a -1 must not search the wrapped index's labels, nor count
    an expansion miss."""
    lookup = LmLookup(
        tiny_task.lm, strategy=LookupStrategy.OFFSET_TABLE
    ).fork()
    lookup.resolve_batch([0, 1, 2], [1, 2, 3], [0.0, 0.0, 0.0])
    before = _transient_state(lookup)
    num_states = tiny_task.lm.fst.num_states
    states = [num_states if s == "num_states" else s for s in states]
    with pytest.raises(ValueError, match="LM state"):
        lookup.resolve_batch(states, [1] * len(states), [0.0] * len(states))
    assert _transient_state(lookup) == before


def test_forks_allocate_no_per_entry_storage():
    """A fork never traces, so it holds no OLT: 64 serve sessions or
    lockstep utterances used to zero-fill 768 KiB each."""
    lookup = LmLookup(_random_lm(2), strategy=LookupStrategy.OFFSET_TABLE)
    lookup.fork()  # builds the shared batch structures
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forks = [lookup.fork() for _ in range(64)]
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(forks) == 64
    assert all(fork.offset_table is None for fork in forks)
    assert grown < 64 * 1024, grown


def test_forks_share_the_label_lists(tiny_task, tiny_scores, monkeypatch):
    """The first lookup builds each state's columns (labels, weights,
    next states, back-off arc) as native ints and floats, once: decodes
    and a forked streaming session walk the same lists, equal to the
    CSR columns' slices."""
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 0)
    decoder = OnTheFlyDecoder(
        tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0, max_active=800)
    )
    for scores in tiny_scores[:3]:
        decoder.decode(scores)
    session = StreamingSession(decoder, lookup=decoder.lookup.fork())
    session.push(tiny_scores[3])
    session.finish()
    columns = decoder.lookup._columns_cell[0]
    assert columns is not None
    assert session._seg.lookup._columns_cell[0] is columns
    soa = LmWordArcs.from_graph(tiny_task.lm)
    offsets = soa.offsets.tolist()
    assert columns.labels == [
        soa.ilabel[lo:hi].tolist() for lo, hi in zip(offsets, offsets[1:])
    ]
    assert columns.base == offsets[:-1]
    assert columns.weights == soa.weight.tolist()
    assert columns.nexts == soa.nextstate.tolist()
    assert columns.backoff_weight == soa.backoff_weight.tolist()
    assert columns.backoff_next == soa.backoff_next.tolist()
    assert all(type(label) is int for row in columns.labels for label in row)
    assert all(type(weight) is float for weight in columns.weights)


def test_resolving_every_pair_holds_only_residency():
    """Once the label lists exist, resolving every (state, word) pair
    of ``KALDI_TEDLIUM``'s LM keeps nothing but the expansion cache's
    residency entries: no per-state row over the vocabulary."""
    graph = build_task(KALDI_TEDLIUM).lm
    num_states = graph.fst.num_states
    lookup = LmLookup(graph, strategy=LookupStrategy.BINARY)
    lookup.resolve_batch([0], [1], [0.0])  # builds the label lists
    assert lookup.expansion_cache.capacity >= num_states
    words = list(range(1, graph.backoff_label))
    entries = [0.0] * len(words)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for state in range(num_states):
            lookup.resolve_batch([state] * len(words), words, entries)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert lookup.stats.expansion_misses == num_states
    assert grown <= 200 * num_states, grown


def test_resolve_batch_rejects_tracing():
    graph = _random_lm(1)
    lookup = LmLookup(graph, sink=NullSink())
    assert not lookup.batch_supported
    with pytest.raises(RuntimeError):
        lookup.resolve_batch([0], [1], [0.0])


def test_expansion_cache_hits_misses_evictions():
    graph = _random_lm(11, num_states=8)
    lookup = LmLookup(
        graph, strategy=LookupStrategy.BINARY, expansion_cache_states=2
    )
    word_ids = [1, 1]
    entries = [0.0, 0.0]
    # Four distinct states through a 2-state cache: all miss, and the
    # last two evict the first two (LRU).
    for state in (1, 2, 3, 4):
        lookup.resolve_batch([state, state], word_ids, entries)
    stats = lookup.stats
    assert stats.expansion_misses == 4
    # The second item of each batch hits the state the first admitted.
    assert stats.expansion_hits == 4
    assert stats.expansion_evictions == 2
    # Revisiting an evicted state misses again; a cached one hits.
    lookup.resolve_batch([4], word_ids[:1], entries[:1])
    assert lookup.stats.expansion_hits == 5
    lookup.resolve_batch([1], word_ids[:1], entries[:1])
    assert lookup.stats.expansion_misses == 5
    assert 0.0 < lookup.stats.expansion_hit_ratio < 1.0


def test_reset_transient_state_clears_both_caches():
    """The batch fills the expansion residency; the traced walk, the
    OLT it models."""
    graph = _random_lm(5)
    lookup = LmLookup(graph, strategy=LookupStrategy.OFFSET_TABLE)
    lookup.resolve_batch([1, 2], [1, 2], [0.0, 0.0])
    assert len(lookup.expansion_cache._resident) > 0
    model = _model(graph, LookupStrategy.OFFSET_TABLE)
    model.resolve(1, 1)
    model.resolve(2, 2)
    # The OLT caches the pair at whichever chain state the arc was
    # found, so scan the full (state, word) space for live entries.
    cached = [
        (s, w)
        for s in range(graph.fst.num_states)
        for w in (1, 2)
        if model.offset_table.lookup(s, w) is not None
    ]
    assert cached  # the walks populated the OLT
    lookup.reset_transient_state()
    model.reset_transient_state()
    assert len(lookup.expansion_cache._resident) == 0
    assert all(
        model.offset_table.lookup(s, w) is None for s, w in cached
    )


def test_nonneg_weights_accepts_negative_backoff_with_nonneg_totals():
    """ARPA-style graphs: negative penalties, non-negative totals."""
    words = SymbolTable("words")
    for w in range(1, 3):
        words.add(f"w{w}")
    backoff_label = words.add("#phi")
    fst = Wfst()
    fst.add_states(2)
    fst.start = 0
    fst.add_arc(0, ilabel=1, olabel=1, weight=2.0, nextstate=0)
    fst.add_arc(0, ilabel=2, olabel=2, weight=3.0, nextstate=0)
    # State 1 backs off with a negative penalty, but every total stays
    # >= 0 (2.0 - 0.5, 3.0 - 0.5).
    fst.add_arc(1, ilabel=backoff_label, olabel=backoff_label, weight=-0.5, nextstate=0)
    fst.set_final(0, 0.0)
    fst.set_final(1, 0.0)
    graph = LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[(), ()],
    )
    arcs = LmWordArcs.from_graph(graph)
    assert arcs.nonneg_weights

    # Now make one total genuinely negative: 0.3 - 0.5 < 0.
    fst.arcs[0][0] = fst.arcs[0][0].__class__(
        ilabel=1, olabel=1, weight=0.3, nextstate=0
    )
    graph_neg = LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[(), ()],
    )
    assert not LmWordArcs.from_graph(graph_neg).nonneg_weights


def test_nonneg_weights_shadowing_rescues_deep_negative():
    """A negative deep total hidden by a shallower arc doesn't trip the
    gate: resolution can never reach the shadowed arc."""
    words = SymbolTable("words")
    words.add("w1")
    backoff_label = words.add("#phi")
    fst = Wfst()
    fst.add_states(2)
    fst.start = 0
    # Unigram arc for w1 would make a negative total through the
    # back-off (-1.0 + 0.2), but state 1 carries w1 itself, so the
    # chain never descends for it.
    fst.add_arc(0, ilabel=1, olabel=1, weight=0.2, nextstate=0)
    fst.add_arc(1, ilabel=1, olabel=1, weight=1.0, nextstate=0)
    fst.add_arc(1, ilabel=backoff_label, olabel=backoff_label, weight=-1.0, nextstate=0)
    fst.set_final(0, 0.0)
    fst.set_final(1, 0.0)
    graph = LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[(), ()],
    )
    assert LmWordArcs.from_graph(graph).nonneg_weights
