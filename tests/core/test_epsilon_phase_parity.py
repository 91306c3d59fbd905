"""The list-native batched epsilon phase against the scalar phase.

``_epsilon_phase_batched`` reads the frame's seeds out of the token
table with numpy and does everything pair-sized — threshold prune,
epsilon-arc fan-out, cost arithmetic, the word/non-word split, the
commit — on native lists.  It must leave exactly what the scalar
``_epsilon_scalar`` leaves on a ``TokenTable`` of the same frontier:
the same table columns in the same order with the same insert
counters, the same lattice, every ``DecoderStats`` field and every
``LookupStats`` counter — on any frontier, not only the ones a decode
happens to produce: seeds over the threshold, frames whose every pair
is preemptively pruned (the scalar phase traced, under each lookup
hardware model), frames with no kept seed, non-word (silence) epsilon
arcs mixed in with the cross-word ones, with and without preemptive
pruning, for both decoders that share the phase.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import LookupStrategy
from repro.core import (
    DecoderConfig,
    DecoderStats,
    FullyComposedDecoder,
    OnTheFlyDecoder,
    SoaTokenTable,
    TokenTable,
    WordLattice,
)
from repro.core.tokens import KEY_SHIFT
from repro.wfst.fst import EPSILON
from tests.asr.test_batched_sessions import _lattice_nodes, _task
from tests.core.sinks import ModelSink


def _frontier(rng, decoder, size, seed_share, cost_spread):
    """A drawn frontier: distinct (am, lm) tokens, ``seed_share`` of
    them at states with epsilon arcs, costs within ``cost_spread``."""
    flags = decoder._epsilon_flags
    seed_states = np.flatnonzero(flags)
    other_states = np.flatnonzero(~flags)
    num_lm = decoder._num_lm
    pairs = set()
    while len(pairs) < size:
        pool = seed_states if rng.random() < seed_share else other_states
        pairs.add((int(rng.choice(pool)), int(rng.integers(0, num_lm))))
    order = rng.permutation(len(pairs))
    am, lm = np.array(sorted(pairs), dtype=np.int64)[order].T
    cost = rng.uniform(10.0, 10.0 + cost_spread, size=size)
    # Ties and exact-threshold seeds are what an off-by-one comparison
    # would get wrong: round a few costs onto a coarse grid.
    coarse = rng.random(size) < 0.3
    cost[coarse] = np.round(cost[coarse])
    node = rng.integers(-1, 3, size=size).astype(np.int64)
    return am, lm, cost, node


def _fresh_state(columns, num_lm):
    # Copies: the phase writes into the table's columns.
    return SoaTokenTable.from_columns(
        num_lm, *(np.ascontiguousarray(column).copy() for column in columns)
    )


def _token_table(columns):
    """The frontier as the scalar regime holds it, in column order."""
    table = TokenTable()
    for am, lm, cost, node in zip(*(column.tolist() for column in columns)):
        table.insert(am, lm, cost, node)
    return table


def _scalar_phase(decoder, table, frame, lattice, stats, beam_config):
    """The scalar epsilon phase, seeded as the scalar body seeds it: the
    keys whose AM state has epsilon arcs, in table order."""
    fanout = decoder._epsilon_fanout
    seeds = [key for key in table.cost if fanout[key >> KEY_SHIFT]]
    if seeds:
        decoder._epsilon_scalar(table, seeds, frame, lattice, stats, beam_config)


def _lattice():
    lattice = WordLattice()
    for word in (1, 2, 3):  # the back-pointers drawn frontiers refer to
        lattice.add(word, 0, 0.0, -1)
    return lattice


def _make(kind, task, config):
    if kind == "composed":
        return FullyComposedDecoder(task.am, task.lm, config)
    return OnTheFlyDecoder(task.am, task.lm, config)


def _assert_phase_parity(batched, scalar, frontiers, beam_config):
    """Run both phases over the same frontiers, frame after frame (the
    stats, the walks' counters among them, accumulate from one frame
    to the next)."""
    assert batched._epsilon_batchable()
    lattices = (_lattice(), _lattice())
    stats = (DecoderStats(), DecoderStats())
    for frame, columns in enumerate(frontiers):
        tables = (_fresh_state(columns, batched._num_lm), _token_table(columns))
        batched._epsilon_phase_batched(
            tables[0], frame, lattices[0], stats[0], beam_config
        )
        _scalar_phase(scalar, tables[1], frame, lattices[1], stats[1], beam_config)
        for got, want in zip(tables[0].columns(), tables[1].columns()):
            assert np.array_equal(got, want), frame
        for name in ("best_cost", "inserts", "improvements", "recombinations"):
            assert getattr(tables[0], name) == getattr(tables[1], name), (
                frame,
                name,
            )
        assert _lattice_nodes(lattices[0]) == _lattice_nodes(lattices[1]), frame
        for f in dataclasses.fields(DecoderStats):
            assert getattr(stats[0], f.name) == getattr(stats[1], f.name), (
                frame,
                f.name,
            )
    return stats[0]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["on-the-fly", "composed"]),
    st.booleans(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.05, 0.5, 2.0, 6.0, 30.0]),
    st.sampled_from([0.0, 0.1, 0.6, 1.0]),
)
def test_batched_phase_matches_scalar_phase(
    kind, preemptive, task_seed, draw_seed, beam, seed_share
):
    task, _ = _task(task_seed)
    config = DecoderConfig(beam=beam, preemptive_pruning=preemptive)
    batched = _make(kind, task, config)
    scalar = _make(kind, task, config)
    rng = np.random.default_rng(draw_seed)
    frontiers = [
        _frontier(
            rng,
            batched,
            size=int(rng.integers(1, 120)),
            seed_share=seed_share,
            # Around the beam: some seeds clear the threshold, some not.
            cost_spread=float(rng.choice([0.0, beam, 2.0 * beam + 1.0])),
        )
        for _ in range(4)
    ]
    _assert_phase_parity(batched, scalar, frontiers, config.beam_config())


def test_non_word_epsilon_arcs_are_exercised(tiny_task):
    """The drawn AMs do mix silence (non-word) epsilon arcs in with the
    cross-word ones — the split the phase has to make."""
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm)
    olabels = {arc[0] for arcs in decoder._epsilon_fanout for arc in arcs}
    assert EPSILON in olabels and len(olabels) > 1
    task, _ = _task(1)
    drawn = OnTheFlyDecoder(task.am, task.lm)
    assert EPSILON in {arc[0] for arcs in drawn._epsilon_fanout for arc in arcs}


@pytest.mark.parametrize("strategy", list(LookupStrategy))
def test_frame_whose_every_pair_is_preemptively_pruned(tiny_task, strategy):
    """Every seed at the threshold, every word absent from its LM
    state: each walk takes a back-off hop and is dropped there.  The
    scalar phase is traced: the lookup model replays each walk as one
    missed search at its state and the back-off arc's fetch."""
    config = DecoderConfig(beam=0.05)
    sink = _WalkLog(tiny_task.lm, strategy)
    batched = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    scalar = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config, sink=sink)
    columns = scalar.lookup._columns()
    am, lm = [], []
    for am_state, arcs in enumerate(batched._epsilon_fanout):
        words = [arc[0] for arc in arcs]
        if not words or EPSILON in words:
            continue
        for lm_state, present in enumerate(columns.labels):
            if columns.backoff_next[lm_state] >= 0 and not any(
                label in words for label in present
            ):
                am.append(am_state)
                lm.append(lm_state)
                break
    assert len(am) > 3
    columns = (
        np.array(am, dtype=np.int64),
        np.array(lm, dtype=np.int64),
        np.full(len(am), 5.0),
        np.full(len(am), -1, dtype=np.int64),
    )
    stats = _assert_phase_parity(
        batched, scalar, [columns, columns], config.beam_config()
    )
    assert stats.preemptive_pruned == stats.expansions > 0
    assert stats.words_emitted == 0
    assert len(sink.walks) == stats.preemptive_pruned
    assert {walk[2:] for walk in sink.walks} == {(1, True)}
    alone = ModelSink(tiny_task.lm, strategy).model
    for state, word, _, _ in sink.walks:
        assert alone.search(state, word) == -1
    counted = sink.model.stats
    assert counted.arc_probes == alone.stats.arc_probes + len(sink.walks)
    assert (counted.olt_hits, counted.olt_misses) == (
        alone.stats.olt_hits, alone.stats.olt_misses,
    )


class _WalkLog(ModelSink):
    """A ModelSink that also keeps every walk event."""

    def __init__(self, graph, strategy):
        super().__init__(graph, strategy)
        self.walks = []

    def on_lm_walk(self, *walk):
        self.walks.append(walk)
        super().on_lm_walk(*walk)


def test_frame_without_a_kept_seed(tiny_task):
    """One cheap mid-word token puts every seed over the threshold."""
    config = DecoderConfig(beam=1.0)
    batched = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    scalar = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    seeds = np.flatnonzero(batched._epsilon_flags)[:6]
    mid_word = int(np.flatnonzero(~batched._epsilon_flags)[1])
    am = np.concatenate([seeds, [mid_word]]).astype(np.int64)
    columns = (
        am,
        np.zeros(am.shape[0], dtype=np.int64),
        np.array([20.0] * seeds.shape[0] + [1.0]),
        np.full(am.shape[0], -1, dtype=np.int64),
    )
    stats = _assert_phase_parity(batched, scalar, [columns], config.beam_config())
    assert stats.beam_pruned == seeds.shape[0]
    assert stats.expansions == 0
