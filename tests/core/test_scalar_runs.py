"""Scalar runs: a small-frontier segment consumes its consecutive frames
in one call.

``advance_segment`` lets a segment whose frontier is at most
``SCALAR_FRONTIER_MAX`` tokens run through ``_scalar_run`` until the
frontier outgrows the constant or its frames run out, then steps one
frame through the numpy kernels.  A segment sees the same frames in the
same order and takes the same regime on each however its frames are
chunked, and nothing may observe the chunking.  Pinned here:

* a property over ``push_sessions``: 1-8 sessions, drawn chunkings with
  zero-frame keep-alives and ragged lengths, the constant drawn so that
  segments cross it both ways inside one push — every session equal,
  partial for partial, down to its lattice, every ``DecoderStats``
  field and all lookup counters, to the same session pushed alone and
  to the frame-by-frame loop (``advance_segment`` per frame);
* a run entered on a ``SoaTokenTable`` (the survivors come from
  ``prune_items`` instead of the folded prune);
* ``max_active`` binding inside a run, and the fully-composed decoder,
  against the loop as first written;
* ``profile=True`` (same results, a phase breakdown that adds up);
* a traced decode's event stream against the loop as first written.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr.streaming import StreamingSession, push_sessions
from repro.core import (
    DecoderConfig,
    OnTheFlyDecoder,
    SoaTokenTable,
    TokenTable,
    batch,
)
from repro.core.tokens import pack_key
from tests.accel.test_layout_sink import _FrameWork
from tests.asr.test_batched_sessions import (
    _assert_identical,
    _lattice_nodes,
    _task,
)
from tests.core.test_scalar_frame_body import (
    _BODY_STATS,
    RecordingSink,
    ReferenceBody,
    _pair,
    _two_level,
)


def _assert_same_segment(want, got, context):
    """Two segments in the same state: frontier (order, values,
    counters), lattice, stats and lookup counters."""
    for a, b in zip(want.table.columns(), got.table.columns()):
        assert np.array_equal(a, b), context
    assert want.table.best_cost == got.table.best_cost, context
    assert want.frame == got.frame, context
    assert _lattice_nodes(want.lattice) == _lattice_nodes(got.lattice), context
    assert want.stats == got.stats, context


def _frame_by_frame(decoder, chunks):
    """One session, every frame through its own ``advance_segment`` call."""
    session = StreamingSession(decoder)
    partials = []
    for chunk in chunks:
        matrix = np.ascontiguousarray(chunk, dtype=np.float64)
        for frame in range(matrix.shape[0]):
            batch.advance_segment(
                decoder, session._seg, matrix[frame : frame + 1]
            )
        partials.append(session._partial())
    return partials, session.finish()


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    # Never scalar, always scalar, the shipped value, and values just
    # below frontier sizes these tasks take (a frame at the boundary
    # with epsilon seeds shows a wrong regime in the cache counters).
    st.sampled_from([0, 1, 3, 5, 8, 12, 13, 64, 96, 10**9]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([(12.0, 0), (16.0, 0), (14.0, 9)]),
    st.data(),
)
def test_sessions_pushed_together_equal_each_pushed_alone(
    count, threshold, task_seed, search, data
):
    task, scores = _task(task_seed)
    beam, max_active = search
    decoder = OnTheFlyDecoder(
        task.am, task.lm, DecoderConfig(beam=beam, max_active=max_active)
    )
    matrices = [scores[i % len(scores)] for i in range(count)]
    chunkings = []
    for matrix in matrices:
        frames = matrix.shape[0]
        cuts = data.draw(
            st.lists(st.integers(0, frames), max_size=5), label="cuts"
        )
        edges = [0, *sorted(cuts), frames]  # repeated cuts: keep-alives
        chunkings.append([matrix[a:b] for a, b in zip(edges, edges[1:])])
    pushes = max(len(chunks) for chunks in chunkings)
    keep_alive = np.zeros((0, 0))  # what an empty wire payload decodes to
    for chunks in chunkings:  # ragged: the shorter plans idle to the end
        chunks.extend([keep_alive] * (pushes - len(chunks)))
    default = batch.SCALAR_FRONTIER_MAX
    batch.SCALAR_FRONTIER_MAX = threshold
    try:
        together = [StreamingSession(decoder) for _ in matrices]
        partials_together = [[] for _ in matrices]
        for call in range(pushes):
            partials = push_sessions(
                together, [chunks[call] for chunks in chunkings]
            )
            for mine, partial in zip(partials_together, partials):
                mine.append(partial)
        finals_together = [session.finish() for session in together]
        alone = []
        for chunks in chunkings:
            session = StreamingSession(decoder)
            partials = [session.push(chunk) for chunk in chunks]
            alone.append((partials, session.finish()))
        stepped = [_frame_by_frame(decoder, chunks) for chunks in chunkings]
    finally:
        batch.SCALAR_FRONTIER_MAX = default
    for i in range(count):
        context = ("session", i, threshold)
        for partials, final in (alone[i], stepped[i]):
            assert partials_together[i] == partials, context
            _assert_identical([final], [finals_together[i]], context)


def test_run_entered_on_a_soa_table(tiny_task, tiny_scores, monkeypatch):
    """A frontier a vectorized frame left behind enters the run through
    ``prune_items``; the same frontier as a ``TokenTable`` takes the
    folded prune.  Same frames out of both."""
    decoder = OnTheFlyDecoder(
        tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0)
    )
    scores = max(tiny_scores, key=lambda m: m.shape[0])
    cut = scores.shape[0] // 3
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 0)
    segments = [decoder.new_segment() for _ in range(2)]
    for seg in segments:
        batch.advance_segment(decoder, seg, scores[:cut])
    from_soa, from_dicts = segments
    assert isinstance(from_soa.table, SoaTokenTable) and len(from_soa.table)
    # Some of the frontier sits outside the beam: the prune has work.
    threshold = from_soa.table.best_cost + decoder.config.beam
    assert len(from_soa.table.survivor_items(threshold)) < len(from_soa.table)
    from_dicts.table = TokenTable()
    for am, lm, cost, node in zip(
        *(column.tolist() for column in from_soa.table.columns())
    ):
        from_dicts.table.insert(am, lm, cost, node)
    for seg in segments:
        assert decoder._scalar_run(seg, scores[cut:]) == scores.shape[0] - cut
        assert isinstance(seg.table, TokenTable)
    _assert_same_segment(from_dicts, from_soa, "soa entry")


def _run_against_reference(decoder, lender, stepper, scores):
    """One run over every frame of ``scores`` on ``decoder``, the loop as
    first written on ``lender``, and one-frame runs on ``stepper``."""
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    seg = decoder.new_segment()
    assert decoder._scalar_run(seg, scores) == scores.shape[0]
    reference = ReferenceBody(lender)
    stepped = stepper.new_segment()
    for row in scores:
        reference.step(row.tolist())
        stepper._scalar_run(stepped, (row,))
    assert list(seg.table.cost) == [pack_key(*p) for p in reference.frontier]
    assert [
        [seg.table.cost[key], seg.table.node[key]] for key in seg.table.cost
    ] == list(reference.frontier.values())
    assert (
        seg.table.inserts, seg.table.improvements, seg.table.recombinations
    ) == reference.table_counters
    assert _lattice_nodes(seg.lattice) == _lattice_nodes(reference.lattice)
    for name in _BODY_STATS:
        assert getattr(seg.stats, name) == reference.stats[name], name
    assert seg.stats.lookup == reference.lookup
    # Everything else: as one-frame runs leave it.
    _assert_same_segment(stepped, seg, "one run vs one-frame runs")
    return seg, reference


def test_max_active_binds_inside_a_run():
    task, scores = _task(3)
    config = DecoderConfig(beam=30.0, max_active=2, vectorized=False)
    decoder, lender = _pair("on-the-fly", task.am, task.lm, config)
    stepper = OnTheFlyDecoder(task.am, task.lm, config)
    sink = _FrameWork(task)
    uncapped = OnTheFlyDecoder(
        task.am, task.lm, dataclasses.replace(config, max_active=0), sink=sink
    )
    for matrix in scores[:3]:
        _run_against_reference(decoder, lender, stepper, matrix)
        # The cap binds: uncapped, this utterance has frames with more
        # survivors than it allows.
        sink.rows.clear()
        uncapped.decode(matrix)
        assert max(survivors for survivors, *_ in sink.rows) > 2


@pytest.mark.parametrize("levels", [1, 2])
def test_fully_composed_decoder_runs(levels):
    task, scores = _task(3)
    am = task.am if levels == 1 else _two_level(task.am)
    config = DecoderConfig(beam=10.0, max_active=6, vectorized=False)
    decoder, lender = _pair("composed", am, task.lm, config)
    stepper, _ = _pair("composed", am, task.lm, config)
    for matrix in scores[:2]:
        _, reference = _run_against_reference(decoder, lender, stepper, matrix)
        assert reference.stats["words_emitted"] > 0


def test_profiled_runs_change_nothing(tiny_task, tiny_scores, monkeypatch):
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 10**9)
    config = DecoderConfig(beam=14.0)
    plain = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    profiled = OnTheFlyDecoder(
        tiny_task.am, tiny_task.lm, dataclasses.replace(config, profile=True)
    )
    for i, scores in enumerate(tiny_scores):
        want, got = plain.decode(scores), profiled.decode(scores)
        _assert_identical([want], [got], ("profile", i))
        phases = profiled.last_phase_seconds
        assert phases["expand"] > 0 and phases["epsilon"] > 0
        assert phases["expand"] + phases["epsilon"] <= phases["total"]
        # Scalar frames report no kernel sections.
        assert all(
            phases[name] == 0.0
            for name in ("prune", "gather", "plan", "fill", "seeds", "pairs")
        )


@pytest.mark.parametrize("kind", ["on-the-fly", "composed"])
def test_traced_decode_raises_the_events_of_the_loop_as_first_written(
    kind, tiny_task, tiny_scores
):
    """A traced decode is one run over every frame; its event stream is
    the one the loop as first written raises — and the one one-frame
    runs raise."""
    config = DecoderConfig(beam=12.0)
    decoder, lender = _pair(kind, tiny_task.am, tiny_task.lm, config, RecordingSink)
    stepper, _ = _pair(kind, tiny_task.am, tiny_task.lm, config, RecordingSink)
    scores = np.ascontiguousarray(tiny_scores[0], dtype=np.float64)
    result = decoder.decode(scores)
    reference = ReferenceBody(lender)
    stepped = stepper.new_segment()
    for row in scores:
        reference.step(row.tolist())
        stepper._scalar_run(stepped, (row,))
    events = decoder.sink.events
    assert events == lender.sink.events
    assert events == stepper.sink.events
    kinds = [event[0] for event in events]
    assert kinds.count("frame_end") == scores.shape[0]
    assert math.isfinite(result.cost)
    assert result.stats.active_history == reference.stats["active_history"]
