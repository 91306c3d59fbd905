"""The scalar frame body on packed integer keys.

In the scalar regime a hypothesis is one native int
(:func:`repro.core.tokens.pack_key`): ``TokenTable`` is two dicts over
those keys, ``prune_items`` hands out ``(key, cost, node)`` survivors,
``_scalar_run`` recombines inline and collects the epsilon seeds as it
inserts, and ``_epsilon_scalar`` pops keys.  Pinned here:

* the table against a plain best-per-key model;
* the frame body against the loop as first written — ``(am, lm)`` tuple
  keys, one record per token, the graph's own ``Arc`` lists, seeds
  found by scanning the new table — frame by frame, on graphs with
  silence arcs and with a two-level epsilon graph, for both decoders,
  down to the order of the trace events;
* regime round trips (scalar -> solo -> scalar) and a session resumed
  by replay mid-scalar-regime;
* ``max_active`` truncation under cost ties.
"""

import copy
import dataclasses
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import TINY, build_task
from repro.asr.streaming import StreamingSession
from repro.core import (
    BeamConfig,
    DecoderConfig,
    DecoderStats,
    FullyComposedDecoder,
    GraphSide,
    LookupStats,
    OnTheFlyDecoder,
    SoaTokenTable,
    TokenTable,
    WordLattice,
    batch,
)
from repro.core.beam import prune_items
from repro.core.tokens import KEY_SHIFT, pack_key, unpack_key
from repro.wfst.fst import EPSILON
from tests.asr.test_batched_sessions import _lattice_nodes, _task

# -- (a) the table -----------------------------------------------------------

#: Ties, both zeros (``-0.0 < 0.0`` is false: a recombination), a
#: negative and an infinity.
_COSTS = [0.0, -0.0, 1.0, 1.5, 2.0, 3.0, -1.0, math.inf]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from([0, 1, 2, (1 << KEY_SHIFT) - 1]),
            st.sampled_from(_COSTS),
            st.integers(-1, 5),
        ),
        max_size=60,
    )
)
def test_packed_table_matches_best_per_key_model(arrivals):
    table = TokenTable()
    model: dict[tuple[int, int], list] = {}  # insertion-ordered
    inserts = improvements = recombinations = 0
    for am, lm, cost, node in arrivals:
        held = model.get((am, lm))
        survives = held is None or cost < held[0]
        if held is None:
            model[(am, lm)] = [cost, node]
            inserts += 1
        elif survives:
            held[:] = cost, node
            improvements += 1
        else:
            recombinations += 1
        assert table.insert(am, lm, cost, node) is survives
    assert (table.inserts, table.improvements, table.recombinations) == (
        inserts, improvements, recombinations,
    )
    assert len(table) == len(model)
    # Insertion order.
    assert list(table.cost) == list(table.node) == [pack_key(*p) for p in model]
    assert [unpack_key(key) for key in table.cost] == list(model)
    assert [
        [table.cost[key], table.node[key]] for key in table.cost
    ] == list(model.values())
    costs = [cost for cost, _ in model.values()]
    assert table.best_cost == min(costs, default=math.inf)
    am, lm, cost, node = table.columns()
    assert list(zip(am.tolist(), lm.tolist())) == list(model)
    assert [list(row) for row in zip(cost.tolist(), node.tolist())] == list(
        model.values()
    )
    for threshold in (-2.0, 1.0, 1.5, math.inf):
        kept = [p for p, (c, _) in model.items() if c <= threshold]
        assert table.survivor_items(threshold) == [
            (pack_key(*p), *model[p]) for p in kept
        ]


# -- (b), (c) the frame body against the loop as first written ---------------


class RecordingSink:
    """A real TraceSink keeping every event, in order."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_state_fetch(self, side, state):
        self.events.append(("state_fetch", side, state))

    def on_arc_fetch(self, side, state, ordinal):
        self.events.append(("arc_fetch", side, state, ordinal))

    def on_token_write(self):
        self.events.append(("token_write",))

    def on_token_hash_access(self, am_state, lm_state):
        self.events.append(("token_hash", am_state, lm_state))

    def on_lm_walk(self, lm_state, word_id, levels, pruned):
        self.events.append(("lm_walk", lm_state, word_id, levels, pruned))

    def on_frame_end(self, frame, active_tokens):
        self.events.append(("frame_end", frame, active_tokens))


#: The DecoderStats fields a frame body drives.
_BODY_STATS = (
    "beam_pruned", "preemptive_pruned", "expansions", "words_emitted",
    "am_state_fetches", "tokens_created", "tokens_recombined",
    "active_history",
)


class ReferenceBody:
    """The scalar frame body as first written.

    One ``[cost, node]`` record per ``(am, lm)`` tuple key, the graph's
    own ``Arc`` lists, ``insert`` one call per arc, the epsilon seeds
    found by scanning the new table.  ``decoder`` lends its graphs,
    config, lookup (its own: trace events are part of the contract) and
    sink; nothing of its frame body runs.  The walks' counters are kept
    in :attr:`lookup`, as the lookup itself kept them when first
    written.
    """

    def __init__(self, decoder):
        self.decoder = decoder
        self.composed = isinstance(decoder, FullyComposedDecoder)
        self.side = GraphSide.COMPOSED if self.composed else GraphSide.AM
        self.fst = decoder.am.fst
        self.frontier = {(decoder.am.loop_state, decoder.lm.fst.start): [0.0, -1]}
        self.lattice = WordLattice()
        self.stats = {name: 0 for name in _BODY_STATS}
        self.stats["active_history"] = []
        self.lookup = LookupStats()
        self.frame = 0
        self.table_counters = (1, 0, 0)

    def _insert(self, table, key, cost, node):
        held = table.get(key)
        if held is None:
            table[key] = [cost, node]
            self._inserts += 1
        elif cost < held[0]:
            held[:] = cost, node
            self._improvements += 1
        else:
            self._recombinations += 1
            return False
        self._best = min(self._best, cost)
        return True

    def step(self, row):
        decoder, stats = self.decoder, self.stats
        # An untraced decoder has no sink: the reference's events go to
        # a throwaway one.
        sink = decoder.sink or RecordingSink()
        config = decoder.config
        frontier = self.frontier
        survivors = []
        if frontier:
            threshold = min(c for c, _ in frontier.values()) + config.beam
            survivors = [
                (key, c, n) for key, (c, n) in frontier.items() if c <= threshold
            ]
            if config.max_active and len(survivors) > config.max_active:
                survivors = heapq.nsmallest(
                    config.max_active, survivors, key=lambda s: s[1]
                )
        stats["beam_pruned"] += len(frontier) - len(survivors)
        stats["am_state_fetches"] += len(survivors)
        table = {}
        self._best = math.inf
        self._inserts = self._improvements = self._recombinations = 0
        for (am, lm), cost, node in survivors:
            fetched = decoder._trace_state(am, lm)
            sink.on_state_fetch(self.side, fetched)
            sink.on_token_hash_access(am, lm)
            for ordinal, arc in enumerate(self.fst.out_arcs(am)):
                if arc.ilabel == EPSILON:
                    continue
                sink.on_arc_fetch(self.side, fetched, ordinal)
                stats["expansions"] += 1
                self._insert(
                    table,
                    (arc.nextstate, lm),
                    cost + arc.weight - row[arc.ilabel - 1],
                    node,
                )

        def has_epsilon(state):
            return any(a.ilabel == EPSILON for a in self.fst.out_arcs(state))

        worklist = [key for key in table if has_epsilon(key[0])]
        while worklist:
            key = worklist.pop()
            am, lm = key
            cost, node = table[key]
            threshold = self._best + config.beam
            if cost > threshold:
                stats["beam_pruned"] += 1
                continue
            fetched = decoder._trace_state(am, lm)
            for ordinal, arc in enumerate(self.fst.out_arcs(am)):
                if arc.ilabel != EPSILON:
                    continue
                sink.on_arc_fetch(self.side, fetched, ordinal)
                stats["expansions"] += 1
                dest_lm, dest_node = lm, node
                if arc.olabel == EPSILON:
                    dest_cost = cost + arc.weight
                else:
                    if self.composed:
                        weight, dest_lm, _, _ = decoder.lookup.plain_walk(
                            lm, arc.olabel, 0.0, math.inf
                        )
                        dest_cost = cost + (arc.weight + weight)
                    else:
                        result = decoder.lookup.resolve(
                            lm,
                            arc.olabel,
                            entry_cost=cost + arc.weight,
                            threshold=threshold,
                            preemptive=config.preemptive_pruning,
                        )
                        levels = result.backoff_levels
                        self.lookup.lookups += levels + (not result.pruned)
                        self.lookup.backoff_arcs_taken += levels
                        if result.pruned:
                            stats["preemptive_pruned"] += 1
                            continue
                        dest_cost = (cost + arc.weight) + result.weight
                        dest_lm = result.next_state
                    dest_node = self.lattice.add(
                        arc.olabel, self.frame, dest_cost, node
                    )
                    sink.on_token_write()
                    stats["words_emitted"] += 1
                dest = (arc.nextstate, dest_lm)
                if self._insert(table, dest, dest_cost, dest_node) and has_epsilon(
                    arc.nextstate
                ):
                    worklist.append(dest)
        stats["tokens_created"] += self._inserts
        stats["tokens_recombined"] += self._recombinations
        stats["active_history"].append(len(table))
        sink.on_frame_end(self.frame, len(table))
        self.table_counters = (
            self._inserts, self._improvements, self._recombinations
        )
        self.best_cost = self._best
        self.frontier = table
        self.frame += 1


def _assert_body_matches(decoder, reference_decoder, scores, force_solo=()):
    """Step ``decoder``'s scalar body and the reference over ``scores``,
    comparing after every frame; frames in ``force_solo`` take the solo
    numpy kernels on the decoder's side instead (a regime round trip)."""
    reference = ReferenceBody(reference_decoder)
    seg = decoder.new_segment()
    for frame, row in enumerate(np.ascontiguousarray(scores, dtype=np.float64)):
        if frame in force_solo:
            batch._step_one(decoder, seg, row)
        else:
            decoder._scalar_run(seg, (row,))
        reference.step(row.tolist())
        am, lm, cost, node = seg.table.columns()
        assert list(zip(am.tolist(), lm.tolist())) == list(reference.frontier), frame
        assert [list(r) for r in zip(cost.tolist(), node.tolist())] == list(
            reference.frontier.values()
        ), frame
        if frame not in force_solo:
            assert isinstance(seg.table, TokenTable)
            assert list(seg.table.cost) == [pack_key(*p) for p in reference.frontier]
        assert (
            seg.table.inserts, seg.table.improvements, seg.table.recombinations
        ) == reference.table_counters, frame
        if len(seg.table):
            assert seg.table.best_cost == reference.best_cost, frame
        assert _lattice_nodes(seg.lattice) == _lattice_nodes(reference.lattice), frame
        for name in _BODY_STATS:
            assert getattr(seg.stats, name) == reference.stats[name], (frame, name)
        assert seg.stats.lookup == reference.lookup, frame
    return seg, reference


def _two_level(am):
    """``am`` with every cross-word arc split in two: the word arc now
    ends in a fresh state whose one (silence-like) epsilon arc goes on to
    the arc's old destination — arrivals there rejoin the worklist."""
    am = copy.deepcopy(am)
    fst = am.fst
    for state in range(fst.num_states):
        for index, arc in enumerate(fst.out_arcs(state)):
            if arc.ilabel == EPSILON and arc.olabel != EPSILON:
                middle = fst.add_state()
                fst.add_arc(middle, EPSILON, EPSILON, 0.25, arc.nextstate)
                fst.out_arcs(state)[index] = dataclasses.replace(
                    arc, nextstate=middle
                )
    return am


def _pair(kind, am, lm, config, sink_type=None):
    """A decoder and the one lending itself to the reference body."""

    def make():
        sink = sink_type() if sink_type is not None else None
        if kind == "composed":
            return FullyComposedDecoder(am, lm, config, sink)
        return OnTheFlyDecoder(am, lm, config, sink)

    return make(), make()


@pytest.mark.parametrize("kind", ["on-the-fly", "composed"])
@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("max_active", [0, 6])
def test_frame_body_matches_the_loop_as_first_written(kind, levels, max_active):
    task, scores = _task(2)
    am = task.am if levels == 1 else _two_level(task.am)
    # Scalar whatever the frontier: this is the reference path.
    config = DecoderConfig(beam=9.0, max_active=max_active, vectorized=False)
    decoder, lender = _pair(kind, am, task.lm, config)
    assert decoder._eps_arcs.single_level == (levels == 1)
    silence = {
        arc[0] == EPSILON for arcs in decoder._epsilon_fanout for arc in arcs
    }
    assert silence == {True, False}  # non-word epsilon arcs mixed in
    for matrix in scores[:2]:
        seg, reference = _assert_body_matches(decoder, lender, matrix)
        assert reference.stats["words_emitted"] > 0
        want = lender._finalize(
            SoaTokenTable.from_columns(decoder._num_lm, *seg.table.columns()),
            reference.lattice,
            DecoderStats(),
        )
        got = decoder._finalize(seg.table, seg.lattice, DecoderStats())
        assert (got.words, got.cost, got.finals) == (
            want.words, want.cost, want.finals,
        )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["on-the-fly", "composed"]),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.5, 4.0, 30.0]),
)
def test_seeds_collected_while_inserting_are_the_table_order_filter(
    kind, levels, draw_seed, beam
):
    """On drawn frontiers: the seeds a scalar frame collects while it
    inserts are the scan's, and the phase run from them leaves what the
    phase that scans for itself leaves."""
    task, _ = _task(1)
    am = task.am if levels == 1 else _two_level(task.am)
    config = DecoderConfig(beam=beam)
    decoder, scanning = _pair(kind, am, task.lm, config)
    rng = np.random.default_rng(draw_seed)
    num_am, num_lm = am.fst.num_states, decoder._num_lm
    draws = [
        (
            int(rng.integers(0, num_am)),
            int(rng.integers(0, num_lm)),
            float(np.round(rng.uniform(10.0, 10.0 + 2 * beam), 1)),
            int(rng.integers(-1, 3)),
        )
        for _ in range(int(rng.integers(1, 40)))
    ]
    row = rng.normal(size=am.num_senones)
    flags = decoder._eps_arcs.has_arcs
    collected, scanned = [], []
    collect, scan = decoder._epsilon_scalar, type(scanning)._epsilon_scalar

    def collecting(table, worklist, *rest):
        collected.append(list(worklist))
        scanned.append([key for key in table.cost if flags[key >> KEY_SHIFT]])
        collect(table, worklist, *rest)
        assert worklist == []  # the worklist is consumed

    def scanning_phase(table, worklist, *rest):
        # The phase that finds its seeds itself, whatever it was handed.
        scan(
            scanning, table, [key for key in table.cost if flags[key >> KEY_SHIFT]],
            *rest,
        )

    decoder._epsilon_scalar = collecting
    scanning._epsilon_scalar = scanning_phase
    segments = []
    for side in (decoder, scanning):
        frontier = TokenTable()
        for draw in draws:
            frontier.insert(*draw)
        lattice = WordLattice()
        for word in (1, 2, 3):  # the back-pointers drawn above refer to
            lattice.add(word, 0, 0.0, -1)
        seg = batch.BatchSegment(frontier, lattice, DecoderStats(), 1)
        assert side._scalar_run(seg, row[None, :]) == 1
        segments.append(seg)
    got, want = segments
    assert collected == scanned
    if not collected:  # no seed, no phase: the scan agrees
        assert not [key for key in got.table.cost if flags[key >> KEY_SHIFT]]
    assert list(got.table.cost.items()) == list(want.table.cost.items())
    assert list(got.table.node.items()) == list(want.table.node.items())
    for name in ("best_cost", "inserts", "improvements", "recombinations"):
        assert getattr(got.table, name) == getattr(want.table, name), name
    assert _lattice_nodes(got.lattice) == _lattice_nodes(want.lattice)
    assert got.stats == want.stats


@pytest.mark.parametrize("kind", ["on-the-fly", "composed"])
def test_trace_events_keep_their_order(kind):
    """A recording sink over a hand-sized graph: the events of the loop
    as first written, in its order — and a traced run changes nothing."""
    task = build_task(
        TINY.with_overrides(
            name="hand-sized", seed=4, vocab_size=3, corpus_sentences=30
        )
    )
    utterance = task.test_set(1, max_words=3)[0]
    scores = -np.abs(
        np.random.default_rng(0).normal(
            size=(len(utterance.features), task.am.num_senones)
        )
    )
    config = DecoderConfig(beam=8.0)
    decoder, lender = _pair(kind, task.am, task.lm, config, RecordingSink)
    plain, _ = _pair(kind, task.am, task.lm, config)
    seg, _ = _assert_body_matches(decoder, lender, scores)
    events = decoder.sink.events
    assert events == lender.sink.events
    side = GraphSide.COMPOSED if kind == "composed" else GraphSide.AM
    loop, start = task.am.loop_state, task.lm.fst.start
    fetched = decoder._trace_state(loop, start)
    entries = len(task.am.fst.out_arcs(loop))
    # Frame 0, pinned: the start token's state, its hash probe, one fetch
    # per arc out of the word-boundary state, in arc order.
    assert events[: 2 + entries] == [
        ("state_fetch", side, fetched),
        ("token_hash", loop, start),
        *[("arc_fetch", side, fetched, i) for i in range(entries)],
    ]
    kinds = [event[0] for event in events]
    assert kinds.count("frame_end") == scores.shape[0]
    assert kinds[-1] == "frame_end"
    assert kinds.count("token_write") > 0
    # Every lattice write follows the fetch of the arc that caused it
    # (and, on the fly, the walk of its lookup).
    walk = ["lm_walk"] if kind == "on-the-fly" else []
    cause = ["arc_fetch", *walk, "token_write"]
    writes = [i for i, name in enumerate(kinds) if name == "token_write"]
    for at in writes:
        assert kinds[at + 1 - len(cause) : at + 1] == cause, at
        assert events[at + 1 - len(cause)][1] is side, at
    # One walk event per walk: its levels are the back-off arcs taken,
    # and each walk not pruned made one lookup more.
    walks = [event for event in events if event[0] == "lm_walk"]
    counted = seg.stats.lookup
    assert bool(walks) is bool(walk)
    assert sum(event[3] for event in walks) == counted.backoff_arcs_taken
    assert len(walks) - sum(event[4] for event in walks) == (
        counted.lookups - counted.backoff_arcs_taken
    )
    traced = decoder.decode(scores)
    untraced = plain.decode(scores)
    assert (traced.words, traced.cost, traced.finals) == (
        untraced.words, untraced.cost, untraced.finals,
    )
    assert _lattice_nodes(traced.lattice) == _lattice_nodes(untraced.lattice)
    assert untraced.stats == traced.stats


# -- (d) regime round trips ----------------------------------------------------


@pytest.mark.parametrize("kind", ["on-the-fly", "composed"])
@pytest.mark.parametrize("levels", [1, 2])
def test_scalar_solo_scalar_round_trip(kind, levels, monkeypatch):
    """Frames alternate between the scalar body and the solo kernels:
    every switch converts the frontier (``columns`` one way,
    ``survivor_items`` the other) without disturbing order or values.
    On the two-level graph the batched phase is off, so a vectorized
    decoder runs every frame in the scalar body, however large its
    frontier: it builds no ``SoaTokenTable`` and decodes exactly as the
    scalar config does."""
    task, scores = _task(3)
    am = task.am if levels == 1 else _two_level(task.am)
    config = DecoderConfig(beam=12.0)
    decoder, lender = _pair(kind, am, task.lm, config)
    assert decoder._epsilon_batchable() == (levels == 1)
    matrix = scores[0]
    if levels == 1:
        solo = {f for f in range(matrix.shape[0]) if f % 5 in (2, 3)}
        _assert_body_matches(decoder, lender, matrix, force_solo=solo)
        return
    scalar, _ = _pair(
        kind, am, task.lm, dataclasses.replace(config, vectorized=False)
    )
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 0)  # every frame
    built = []
    build = SoaTokenTable.__init__

    def spy(table, num_lm):
        built.append(num_lm)
        build(table, num_lm)

    monkeypatch.setattr(SoaTokenTable, "__init__", spy)
    got, want = decoder.decode(matrix), scalar.decode(matrix)
    assert built == []
    assert (got.words, got.cost, got.finals) == (want.words, want.cost, want.finals)
    assert _lattice_nodes(got.lattice) == _lattice_nodes(want.lattice)
    assert got.stats == want.stats


def test_table_conversions_keep_order_and_values():
    table = TokenTable()
    for am, lm, cost, node in [(5, 1, 3.0, 2), (0, 9, 1.0, -1), (5, 0, 3.0, 7)]:
        table.insert(am, lm, cost, node)
    table.insert(5, 1, 2.5, 4)  # an improvement keeps the slot
    soa = SoaTokenTable.from_columns(11, *table.columns())
    assert soa.survivor_items(math.inf) == table.survivor_items(math.inf) == [
        (pack_key(5, 1), 2.5, 4), (pack_key(0, 9), 1.0, -1), (pack_key(5, 0), 3.0, 7),
    ]
    assert soa.survivor_items(2.5) == table.survivor_items(2.5)
    assert soa.best_cost == table.best_cost == 1.0
    keys = (1 * 11 + 1, 5 * 11 + 0, 0 * 11 + 9, 3)
    hints = [soa.base_slot(key) for key in keys]
    assert hints == [-1, 2, 1, -1]
    # Arrivals after the fill: a new key, then an improvement.
    for (am, lm, cost, node), hint in zip([(1, 1, 0.5, 3), (0, 9, 0.75, 6)], [-1, 1]):
        assert soa.insert_hinted(am, lm, cost, node, hint)
        assert table.insert(am, lm, cost, node)
    for a, b in zip(soa.columns(), table.columns()):
        assert np.array_equal(a, b)
    assert (soa.best_cost, soa.inserts, soa.improvements) == (0.5, 4, 1)
    assert soa.survivor_items(math.inf) == table.survivor_items(math.inf)


def test_replay_mid_scalar_regime_continues_bit_identically(
    tiny_task, tiny_scores, monkeypatch
):
    """A replay rebuilds the scalar frontier key for key, in insertion
    order — the order ``max_active`` truncation breaks ties by."""
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 10**9)  # never leaves it
    config = DecoderConfig(beam=14.0, max_active=800)
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    scores = tiny_scores[1]
    cut = scores.shape[0] // 2
    straight = StreamingSession(decoder)
    straight.push(scores[:cut])
    fresh = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    resumed = StreamingSession(fresh)
    for start in range(0, cut, 3):
        resumed.push(scores[start : min(start + 3, cut)])
    assert isinstance(straight._seg.table, TokenTable)
    assert isinstance(resumed._seg.table, TokenTable)
    assert list(resumed._seg.table.cost.items()) == list(
        straight._seg.table.cost.items()
    )
    assert list(resumed._seg.table.node.items()) == list(
        straight._seg.table.node.items()
    )
    for start in range(cut, scores.shape[0], 3):
        want = straight.push(scores[start : start + 3])
        assert resumed.push(scores[start : start + 3]) == want
        assert isinstance(resumed._seg.table, TokenTable)
    want, got = straight.finish(), resumed.finish()
    assert (got.words, got.cost, got.finals) == (want.words, want.cost, want.finals)
    assert _lattice_nodes(got.lattice) == _lattice_nodes(want.lattice)
    assert got.stats == want.stats


# -- (e) max_active under ties -------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.5]), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=10),
)
def test_max_active_ties_keep_nsmallest_order(costs, max_active):
    table = TokenTable()
    for index, cost in enumerate(costs):
        table.insert(index % 5, index, cost, index)
    config = BeamConfig(beam=2.5, max_active=max_active)
    survivors, pruned = prune_items(table, config)
    threshold = min(costs) + 2.5
    within = [
        (pack_key(i % 5, i), c, i) for i, c in enumerate(costs) if c <= threshold
    ]
    # ``nsmallest`` is ``sorted(...)[:n]``: stable, ties in table order.
    want = (
        sorted(within, key=lambda item: item[1])[:max_active]
        if len(within) > max_active
        else within
    )
    assert survivors == want
    assert pruned == len(costs) - len(want)
    soa = SoaTokenTable.from_columns(64, *table.columns())
    assert prune_items(soa, config) == (want, pruned)
