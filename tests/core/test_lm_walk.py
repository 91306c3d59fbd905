"""The scalar LM walk, pinned event for event.

``LmLookup.resolve`` reports every LM fetch and Offset Lookup Table
access to the trace sink, and the accelerator simulators turn that
order into cache and DRAM traffic.  The digests below were recorded
from the walk as first written (one method per search strategy and one
per probe); any rewrite of the walk must reproduce them exactly:
the same events in the same order, the same results and the same
counters and table contents.

That walk is the lookup hardware's model, and only a traced lookup
runs it.  Untraced, ``resolve`` and ``resolve_batch`` (the batched
epsilon phase's engine) walk plainly, one ``bisect_left`` per back-off
level, and must agree with the model item for item: the same weights,
next states, prunes and levels, and the same ``lookups`` and
``backoff_arcs_taken``; the model's own counters (``arc_probes``,
``olt_hits``, ``olt_misses``) are a traced decode's only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from repro.am import GmmAcousticModel
from repro.asr import KALDI_TEDLIUM, build_task
from repro.core import (
    DecoderConfig,
    LmLookup,
    LookupStrategy,
    NullSink,
    OnTheFlyDecoder,
)

#: The lookup model's counters: a traced decode's only.
MODELLED = ("arc_probes", "olt_hits", "olt_misses")


def unmodelled(stats):
    """``LookupStats`` with the model's counters zeroed: what a plain
    walk of the same items counts."""
    return dataclasses.replace(stats, **dict.fromkeys(MODELLED, 0))


def without_model(stats):
    """``DecoderStats`` with the lookup model's counters zeroed: what an
    untraced decode of the same search reports."""
    return dataclasses.replace(stats, lookup=unmodelled(stats.lookup))


class RecordingSink:
    """A TraceSink keeping the LM walk's events, in order."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_state_fetch(self, side, state):
        self.events.append(("state_fetch", side.value, state))

    def on_arc_fetch(self, side, state, ordinal):
        self.events.append(("arc_fetch", side.value, state, ordinal))

    def on_token_write(self):
        self.events.append(("token_write",))

    def on_token_hash_access(self, am_state, lm_state):
        self.events.append(("token_hash", am_state, lm_state))

    def on_olt_access(self, lm_state, word_id, hit):
        self.events.append(("olt", lm_state, word_id, hit))

    def on_frame_end(self, frame, active_tokens):
        self.events.append(("frame_end", frame, active_tokens))


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


def _plant(lookup, state, word, arc_counts):
    """An aliased OLT entry for the pair: its own slot and tag, holding
    an ordinal past the state's arcs or one of another label."""
    if lookup.offset_table is not None and (state + word) % 11 == 0:
        bogus = arc_counts[state] + 3 if state % 2 else 0
        lookup.offset_table.insert(state, word, bogus)


def _walk_digest(graph, strategy, preemptive):
    """sha256 of two traced passes over every pair: events, results,
    counters and the table's final entries."""
    sink = RecordingSink()
    lookup = LmLookup(
        graph, strategy=strategy, offset_table_entries=16, sink=sink
    )
    arc_counts = _arc_counts(graph)
    log = sink.events
    pruned = 0
    for _ in range(2):  # the second pass meets a warm table
        for state, word in _pairs(graph):
            _plant(lookup, state, word, arc_counts)
            entry, threshold = _costs(state, word)
            result = lookup.resolve(
                state, word, entry_cost=entry, threshold=threshold,
                preemptive=preemptive,
            )
            pruned += result.pruned
            log.append(
                (
                    "result", result.weight.hex(), result.next_state,
                    result.pruned, result.backoff_levels,
                )
            )
    # The counters as the first walk recorded them: its prune count sat
    # sixth, after ``backoff_arcs_taken``; the pruned results count it.
    counters = list(dataclasses.astuple(lookup.stats))
    counters.insert(5, pruned)
    log.append(("stats", tuple(counters)))
    if lookup.offset_table is not None:
        log.append(("olt", sorted(lookup.offset_table._entries.items())))
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
    """Untraced ``resolve`` item by item and one ``resolve_batch`` over
    the same items, against the traced model walk with aliased OLT
    entries planted: per-item outcome, ``lookups`` and
    ``backoff_arcs_taken``; the plain walks count no model."""
    pairs = _pairs(graph)
    arc_counts = _arc_counts(graph)
    model = LmLookup(graph, strategy=strategy, sink=NullSink())
    scalar = LmLookup(graph, strategy=strategy)
    batched = LmLookup(graph, strategy=strategy)
    assert scalar.offset_table is None and batched.offset_table is None
    for state, word in pairs:
        _plant(model, state, word, arc_counts)
    threshold = 2.5 if preemptive else math.inf

    def outcome(result):
        return (
            result.weight.hex(), result.next_state, result.pruned,
            result.backoff_levels,
        )

    want = [
        outcome(
            model.resolve(
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
    assert scalar.stats == batched.stats == unmodelled(model.stats)
    if strategy is LookupStrategy.OFFSET_TABLE:
        assert model.stats.olt_hits > 0


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


def _decode_all(task, scores, strategy, preemptive, sink=None):
    """One decoder (its OLT persists) over every utterance: their
    results and the lookup's counters summed."""
    config = DecoderConfig(
        beam=14.0,
        max_active=800,
        lookup_strategy=strategy,
        preemptive_pruning=preemptive,
    )
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
    return decoder, results, total


#: (strategy, preemptive) -> (lookups, arc_probes, olt_hits, olt_misses,
#: backoff_arcs_taken) of ``_decode_all`` over ``tedlium``, recorded from
#: untraced decodes when the lookup hardware's model still ran on every
#: walk (mostly in ``resolve_batch``: these frontiers take the kernels).
_PINNED_DECODES = {
    (LookupStrategy.LINEAR, False): (10604, 653541, 0, 0, 6954),
    (LookupStrategy.LINEAR, True): (8210, 282541, 0, 0, 6607),
    (LookupStrategy.BINARY, False): (10604, 55528, 0, 0, 6954),
    (LookupStrategy.BINARY, True): (8210, 38528, 0, 0, 6607),
    (LookupStrategy.OFFSET_TABLE, False): (10604, 34263, 3428, 7176, 6954),
    (LookupStrategy.OFFSET_TABLE, True): (8210, 29986, 1444, 6766, 6607),
}

_COUNTERS = ("lookups", *MODELLED, "backoff_arcs_taken")


@pytest.fixture(scope="module")
def traced_decodes(tedlium):
    """``_decode_all`` over ``tedlium`` with a sink, once per config."""
    memo = {}

    def get(strategy, preemptive):
        if (strategy, preemptive) not in memo:
            memo[strategy, preemptive] = _decode_all(
                *tedlium, strategy, preemptive, NullSink()
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
    """An untraced decode holds no OLT and counts none of the model;
    the search and every other stat equal the traced decode's."""
    plain, untraced, _ = _decode_all(*tedlium, strategy, preemptive)
    _, traced, total = traced_decodes(strategy, preemptive)
    assert plain.lookup.offset_table is None
    assert total.arc_probes > 0
    for want, got in zip(traced, untraced):
        assert (got.words, got.cost, got.finals) == (
            want.words, want.cost, want.finals,
        )
        assert got.stats == without_model(want.stats)
