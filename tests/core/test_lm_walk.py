"""The LM walk and the lookup hardware's model, pinned event for event.

``LmLookup.resolve`` walks the LM plainly, one ``bisect_left`` per
back-off level, and a traced lookup reports each walk to its sink as
one ``on_lm_walk`` event.  The UNFOLD sink's lookup model
(``repro.accel.lookup``) replays that event into every LM fetch and
Offset Lookup Table access, and the simulators turn that order into
cache and DRAM traffic.  The digests below were recorded from the
traced walk as first written (one method per search strategy and one
per probe), when it ran the model itself; the walk and the model
together must reproduce them exactly: the same events in the same
order, the same results and the same counters and table contents.

A traced walk is the untraced walk: ``resolve`` traced or not and
``resolve_batch`` agree item for item, the same weights, next states,
prunes and levels and the same counters, and a traced decode's
results and ``DecoderStats`` equal an untraced decode's in full.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from repro.accel import LookupStrategy
from repro.am import GmmAcousticModel
from repro.asr import KALDI_TEDLIUM, build_task
from repro.asr.streaming import StreamingSession
from repro.core import DecoderConfig, LmLookup, LookupStats, OnTheFlyDecoder
from repro.core.batch import SCALAR_FRONTIER_MAX
from repro.serve.engine import InlineEngine
from tests.core.sinks import ModelSink, RecordingSink


def _pairs(graph):
    """Every (state, word) pair of ``graph``, state-major."""
    words = range(1, graph.backoff_label)
    return [(s, w) for s in range(graph.fst.num_states) for w in words]


def _arc_counts(graph):
    return [
        len(graph.fst.out_arcs(s)) - (graph.backoff_arc(s) is not None)
        for s in range(graph.fst.num_states)
    ]


def _costs(state, word):
    """A pair's entry cost and pruning threshold: spread so that some
    walks on TINY are pruned at their first back-off hop, some deeper,
    and some not at all."""
    entry = (word % 4) * 0.5
    return entry, entry + 1.0 + (state % 3)


def _plant(model, state, word, arc_counts):
    """An aliased OLT entry for the pair: its own slot and tag, holding
    an ordinal past the state's arcs or one of another label."""
    if model.table is not None and (state + word) % 11 == 0:
        bogus = arc_counts[state] + 3 if state % 2 else 0
        model.table.insert(model.table.slot(state, word), bogus)


def _add_model_counts(stats, counts):
    """Fill the walk's ``LookupStats`` with the model's record, as the
    eight-field tuple the pinned values hash was first laid out."""
    stats.arc_probes += counts.arc_probes
    stats.olt_hits += counts.olt_hits
    stats.olt_misses += counts.olt_misses


def _walk_digest(graph, strategy, preemptive):
    """sha256 of two traced passes over every pair: events, results,
    counters and the table's final entries."""
    sink = RecordingSink(graph, strategy, table_entries=16)
    model = sink.model
    lookup = LmLookup(graph, sink=sink)
    arc_counts = _arc_counts(graph)
    log = sink.events
    counts = LookupStats()
    pruned = 0
    for _ in range(2):  # the second pass meets a warm table
        for state, word in _pairs(graph):
            _plant(model, state, word, arc_counts)
            entry, threshold = _costs(state, word)
            result = lookup.resolve(
                state, word, entry_cost=entry, threshold=threshold,
                preemptive=preemptive,
            )
            pruned += result.pruned
            levels = result.backoff_levels
            counts.lookups += levels + (not result.pruned)
            counts.backoff_arcs_taken += levels
            log.append(
                (
                    "result", result.weight.hex(), result.next_state,
                    result.pruned, result.backoff_levels,
                )
            )
    # The counters as the first walk recorded them, the model's with
    # the search's (which the walk's caller keeps, from its results):
    # its prune count sat sixth, after ``backoff_arcs_taken``.
    _add_model_counts(counts, model.stats)
    counters = list(dataclasses.astuple(counts))
    counters.insert(5, pruned)
    log.append(("stats", tuple(counters)))
    if model.table is not None:
        log.append(("olt", sorted(model.table._entries.items())))
    return hashlib.sha256(repr(log).encode()).hexdigest(), len(log), pruned


_PREEMPTIVE = pytest.mark.parametrize(
    "preemptive", [False, True], ids=["full", "preemptive"]
)
_STRATEGIES = pytest.mark.parametrize(
    "strategy", list(LookupStrategy), ids=lambda s: s.value
)

#: (strategy, preemptive) -> (sha256, log length) of the walk as first
#: written.
_PINNED = {
    (LookupStrategy.LINEAR, False): (
        "b0c4321751d8dc0fe6a3a7d821e32ec5ace456fd56c9a83a58fd45a689600e8c",
        15491,
    ),
    (LookupStrategy.LINEAR, True): (
        "1ad2813422388db2736eafaf61319708125019369aaec5686955515fbdc09570",
        12137,
    ),
    (LookupStrategy.BINARY, False): (
        "a4cc60550498fccadfdf2dd281b8fc6d4cddec2f502c42c30f07351e146f0213",
        11381,
    ),
    (LookupStrategy.BINARY, True): (
        "9ddc4e68d45892367f4a9e9ca85db779a7a1a190d9aaa009f3f9c135824f7b8b",
        9725,
    ),
    (LookupStrategy.OFFSET_TABLE, False): (
        "b9b26dec62a3d8f69731f7fd1e7924e241cfe981cad5cbf8807c5a45caea1d8b",
        12226,
    ),
    (LookupStrategy.OFFSET_TABLE, True): (
        "129c732eea9fa1b1b6aad610b81eee92219e6348539d4e7bafe4bba5fc844afe",
        11264,
    ),
}


@_PREEMPTIVE
@_STRATEGIES
def test_traced_walk_is_pinned(tiny_task, strategy, preemptive):
    digest, length, pruned = _walk_digest(tiny_task.lm, strategy, preemptive)
    assert (pruned > 0) is preemptive
    assert (digest, length) == _PINNED[strategy, preemptive]


def _assert_plain_equals_model(graph, strategy, preemptive):
    """A traced ``resolve`` (its sink's model holding aliased OLT
    entries), an untraced one item by item and one ``resolve_batch``
    over the same items: the same per-item outcome, so the same walk
    counters; the model's own counts are its sink's."""
    pairs = _pairs(graph)
    arc_counts = _arc_counts(graph)
    sink = ModelSink(graph, strategy)
    traced = LmLookup(graph, sink=sink)
    scalar = LmLookup(graph)
    batched = LmLookup(graph)
    for state, word in pairs:
        _plant(sink.model, state, word, arc_counts)
    threshold = 2.5 if preemptive else math.inf

    def outcome(result):
        return (
            result.weight.hex(), result.next_state, result.pruned,
            result.backoff_levels,
        )

    want = [
        outcome(
            traced.resolve(
                s, w, entry_cost=0.5, threshold=threshold,
                preemptive=preemptive,
            )
        )
        for s, w in pairs
    ]
    plain = [
        outcome(
            scalar.resolve(
                s, w, entry_cost=0.5, threshold=threshold,
                preemptive=preemptive,
            )
        )
        for s, w in pairs
    ]
    got = batched.resolve_batch(
        [s for s, _ in pairs],
        [w for _, w in pairs],
        [0.5] * len(pairs),
        threshold=threshold,
        preemptive=preemptive,
    )
    for i, ref in enumerate(want):
        assert plain[i] == ref, pairs[i]
        assert (
            got.weight[i].hex(), got.next_state[i], got.pruned[i],
            got.backoff_levels[i],
        ) == ref, pairs[i]
    assert any(pruned for _, _, pruned, _ in want) is preemptive
    assert sink.model.stats.arc_probes > 0
    if strategy is LookupStrategy.OFFSET_TABLE:
        assert sink.model.stats.olt_hits > 0


@_PREEMPTIVE
@_STRATEGIES
def test_tiny_resolve_equals_resolve_batch(tiny_task, strategy, preemptive):
    _assert_plain_equals_model(tiny_task.lm, strategy, preemptive)


@pytest.fixture(scope="module")
def tedlium():
    """``KALDI_TEDLIUM`` and three utterances' oracle scores."""
    task = build_task(KALDI_TEDLIUM)
    scorer = GmmAcousticModel.from_emissions(
        task.emissions, num_mixtures=1, noise_scale=task.config.noise_scale
    )
    return task, [scorer.score(u.features) for u in task.test_set(3, max_words=6)]


@_PREEMPTIVE
def test_tedlium_resolve_equals_resolve_batch(tedlium, preemptive):
    _assert_plain_equals_model(
        tedlium[0].lm, LookupStrategy.OFFSET_TABLE, preemptive
    )


@pytest.mark.parametrize("strategy", list(LookupStrategy))
def test_model_search_finds_the_walks_arc(tiny_task, strategy):
    """On every (state, word) pair the model's one-level search finds
    the ordinal of the state's arc for the word, or -1 exactly where
    the walk backs off; that arc's weight and destination are the
    walk's."""
    graph = tiny_task.lm
    model = ModelSink(graph, strategy).model
    walk = LmLookup(graph).plain_walk
    pairs = _pairs(graph)
    found = 0
    for state, word in pairs:
        ordinal = model.search(state, word)
        arcs = graph.fst.out_arcs(state)
        labels = [arc.ilabel for arc in arcs]
        assert ordinal == (labels.index(word) if word in labels else -1)
        weight, nxt, _, levels = walk(state, word, 0.0, math.inf)
        assert (levels == 0) is (ordinal >= 0), (state, word)
        if ordinal >= 0:
            assert (weight, nxt) == (
                arcs[ordinal].weight, arcs[ordinal].nextstate,
            )
            found += 1
    assert 0 < found < len(pairs)
    assert model.stats.arc_probes >= len(pairs) - found


def _decode_all(task, scores, strategy, preemptive, traced):
    """One decoder (with ``traced``, its sink's OLT persists) over
    every utterance: the sink, the results and the lookup's counters
    summed, the model's among them."""
    config = DecoderConfig(
        beam=14.0, max_active=800, preemptive_pruning=preemptive
    )
    sink = ModelSink(task.lm, strategy) if traced else None
    decoder = OnTheFlyDecoder(task.am, task.lm, config, sink=sink)
    results = [decoder.decode(matrix) for matrix in scores]
    total = dataclasses.replace(results[0].stats.lookup)
    for result in results[1:]:
        for f in dataclasses.fields(total):
            name = f.name
            setattr(
                total, name,
                getattr(total, name) + getattr(result.stats.lookup, name),
            )
    # No code of the search writes the hardware's counters.
    assert (total.arc_probes, total.olt_hits, total.olt_misses) == (0, 0, 0)
    if traced:
        assert sink.model.stats.lookups == total.lookups
        _add_model_counts(total, sink.model.stats)
    return sink, results, total


#: (strategy, preemptive) -> (lookups, arc_probes, olt_hits, olt_misses,
#: backoff_arcs_taken) of ``_decode_all`` over ``tedlium``, recorded from
#: untraced decodes when the lookup hardware's model still ran on every
#: walk (mostly in ``resolve_batch``: these frontiers take the kernels),
#: inside the search.
_PINNED_DECODES = {
    (LookupStrategy.LINEAR, False): (10604, 653541, 0, 0, 6954),
    (LookupStrategy.LINEAR, True): (8210, 282541, 0, 0, 6607),
    (LookupStrategy.BINARY, False): (10604, 55528, 0, 0, 6954),
    (LookupStrategy.BINARY, True): (8210, 38528, 0, 0, 6607),
    (LookupStrategy.OFFSET_TABLE, False): (10604, 34263, 3428, 7176, 6954),
    (LookupStrategy.OFFSET_TABLE, True): (8210, 29986, 1444, 6766, 6607),
}

_COUNTERS = (
    "lookups", "arc_probes", "olt_hits", "olt_misses", "backoff_arcs_taken",
)


@pytest.fixture(scope="module")
def traced_decodes(tedlium):
    """``_decode_all`` over ``tedlium`` with a sink, once per config."""
    memo = {}

    def get(strategy, preemptive):
        if (strategy, preemptive) not in memo:
            memo[strategy, preemptive] = _decode_all(
                *tedlium, strategy, preemptive, traced=True
            )
        return memo[strategy, preemptive]

    return get


@_PREEMPTIVE
@_STRATEGIES
def test_traced_decode_counts_the_pinned_model(
    traced_decodes, strategy, preemptive
):
    """Traced decodes count what every decode counted while each walk
    ran the model: the OLT, the probes and the back-off walk."""
    _, _, total = traced_decodes(strategy, preemptive)
    counted = tuple(getattr(total, name) for name in _COUNTERS)
    assert counted == _PINNED_DECODES[strategy, preemptive]


@_PREEMPTIVE
@_STRATEGIES
def test_untraced_decode_holds_no_model(
    tedlium, traced_decodes, strategy, preemptive
):
    """An untraced decode has no sink, so nothing models the lookup
    hardware; its results and every stat equal the traced decode's,
    whose model counted."""
    _, untraced, _ = _decode_all(*tedlium, strategy, preemptive, False)
    _, traced, total = traced_decodes(strategy, preemptive)
    assert total.arc_probes > 0
    for want, got in zip(traced, untraced, strict=True):
        assert (got.words, got.cost, got.finals) == (
            want.words, want.cost, want.finals,
        )
        assert got.stats == want.stats


def _served_like_solo(decoder, scores):
    """Solo decodes of three utterances, then a streamed session and
    three sessions interleaved through ``InlineEngine.push_many``, all
    on ``decoder``: every final equals its solo decode, stats (the
    lookup's counters among them) included, and the decoder's lookup
    holds afterwards what it held before, bar walk columns built on
    first use."""
    lookup = decoder.lookup
    before = dict(vars(lookup))
    solo = [decoder.decode(matrix) for matrix in scores]
    assert solo[0].stats.lookup.lookups > 0
    session = StreamingSession(decoder)
    for start in range(0, scores[0].shape[0], 7):
        session.push(scores[0][start:start + 7])
    finals = [session.finish()]
    engine = InlineEngine(decoder=decoder)
    ids = [f"s{i}" for i in range(len(scores))]
    for session_id in ids:
        engine.start(session_id)
    at = [0] * len(scores)
    while any(a < m.shape[0] for a, m in zip(at, scores)):
        items = []
        for i, (session_id, matrix) in enumerate(zip(ids, scores)):
            step = 5 + 3 * i  # ragged: the sessions drift apart
            items.append((session_id, matrix[at[i]:at[i] + step]))
            at[i] += step
        engine.push_many(items)
    finals += [engine.finish(session_id) for session_id in ids]
    for want, got in zip([solo[0]] + solo, finals, strict=True):
        assert (got.words, got.cost, got.finals) == (
            want.words, want.cost, want.finals,
        )
        assert got.stats == want.stats
    after = vars(lookup)
    assert after.keys() == before.keys()
    for name, value in after.items():
        assert value is before[name] or before[name] is None, name
        assert not isinstance(value, LookupStats), name
    return solo


def test_one_lookup_serves_every_session_and_keeps_nothing(
    tiny_task, tiny_scores, tedlium
):
    """The lookup is the LM's walk and nothing else: decodes, a
    streamed session and fused served sessions share one, and each
    counts its own walks.  On ``KALDI_TEDLIUM`` the frontiers outgrow
    the scalar regime, so the kernels' epsilon phase walks too."""
    config = DecoderConfig(beam=14.0, max_active=800)
    _served_like_solo(
        OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config), tiny_scores[:3]
    )
    task, scores = tedlium
    solo = _served_like_solo(
        OnTheFlyDecoder(task.am, task.lm, config), scores
    )
    assert max(solo[0].stats.active_history) > SCALAR_FRONTIER_MAX
