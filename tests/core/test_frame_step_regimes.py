"""The frame step's regime switch is invisible in every result.

``advance_segment`` picks, per frame, the scalar reference body
(frontier at or below ``SCALAR_FRONTIER_MAX`` tokens, run over
consecutive frames) or the numpy kernels (``_step_one``).  The
contract: wherever the constant sits — 0 (never scalar), small values
that flip regimes mid-utterance, 10**9 (always scalar) — every entry
point (``decode``, ``StreamingSession.push`` at any chunking,
``push_sessions``) reports the same words, costs,
finals, lattice, ``DecoderStats`` and every lookup counter as every
other and as the ``vectorized=False`` reference.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr.streaming import StreamingSession, push_sessions
from repro.core import (
    DecoderConfig,
    FullyComposedDecoder,
    LookupStats,
    OnTheFlyDecoder,
    SoaTokenTable,
    TokenTable,
)
from repro.core import batch
from tests.asr.test_batched_sessions import (
    LOOKUP_COUNTERS,
    _lattice_nodes,
    _pushed_together,
    _task,
)
from tests.core.test_vectorized_equivalence import CountingSink


def _assert_same(ref, got, context):
    assert ref.words == got.words, context
    assert ref.cost == got.cost, context
    assert ref.finals == got.finals, context
    assert _lattice_nodes(ref.lattice) == _lattice_nodes(got.lattice), context
    for f in dataclasses.fields(ref.stats):
        if f.name != "lookup":
            assert getattr(ref.stats, f.name) == getattr(got.stats, f.name), (
                context,
                f.name,
            )
    for name in LOOKUP_COUNTERS:
        assert getattr(ref.stats.lookup, name) == getattr(
            got.stats.lookup, name
        ), (context, name)


def _decode_each(decoder, scores):
    return [decoder.decode(matrix) for matrix in scores]


def _stream(decoder, matrix, cuts):
    session = StreamingSession(decoder)
    edges = [0, *sorted(cuts), matrix.shape[0]]
    for a, b in zip(edges, edges[1:]):
        session.push(matrix[a:b])
    return session.finish()


def _push_together(decoder, scores, chunk):
    sessions = [StreamingSession(decoder) for _ in scores]
    for start in range(0, max(s.shape[0] for s in scores), chunk):
        push_sessions(sessions, [s[start : start + chunk] for s in scores])
    return [session.finish() for session in sessions]


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from([0, 1, 8, 64, 10**9]),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=6.0, max_value=18.0),
    st.sampled_from([0, 5, 800]),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
def test_entry_points_agree_at_any_threshold(
    threshold, task_seed, beam, max_active, chunk, data
):
    task, scores = _task(task_seed)
    config = DecoderConfig(beam=beam, max_active=max_active)
    decoder = OnTheFlyDecoder(task.am, task.lm, config)
    scalar = OnTheFlyDecoder(
        task.am, task.lm, dataclasses.replace(config, vectorized=False)
    )
    cuts = [
        data.draw(
            st.lists(st.integers(0, matrix.shape[0]), max_size=4),
            label="push boundaries",
        )
        for matrix in scores
    ]
    default = batch.SCALAR_FRONTIER_MAX
    batch.SCALAR_FRONTIER_MAX = threshold
    try:
        decoded = _decode_each(decoder, scores)
        streamed = [_stream(decoder, m, c) for m, c in zip(scores, cuts)]
        together = _push_together(decoder, scores, chunk)
        whole = _pushed_together(decoder, scores)
        reference = _decode_each(scalar, scores)
    finally:
        batch.SCALAR_FRONTIER_MAX = default
    for i, want in enumerate(decoded):
        _assert_same(want, streamed[i], ("push", threshold, i))
        _assert_same(want, together[i], ("push_sessions", threshold, i))
        _assert_same(want, whole[i], ("one call", threshold, i))
        _assert_same(reference[i], want, ("scalar", threshold, i))


@pytest.mark.parametrize("threshold", [0, 8, 10**9])
def test_composed_baseline_takes_the_same_regimes(
    tiny_task, tiny_scores, monkeypatch, threshold
):
    """The fully-composed baseline steps through the same frame step:
    wherever the threshold sits it matches its scalar reference, traced
    or not, and reports no decode-time lookup activity for the words it
    composed."""
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", threshold)

    def make(vectorized, sink=None):
        return FullyComposedDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=14.0, max_active=800, vectorized=vectorized),
            sink=sink,
        )

    swept, reference = make(True), make(False)
    kernel_frames = []
    batched = swept._epsilon_phase_batched

    def counted(*args):
        kernel_frames.append(args[1])
        return batched(*args)

    monkeypatch.setattr(swept, "_epsilon_phase_batched", counted)
    swept_sink, reference_sink = CountingSink(), CountingSink()
    traced, traced_reference = (
        make(True, swept_sink), make(False, reference_sink)
    )
    words = 0
    for i, scores in enumerate(tiny_scores):
        want = reference.decode(scores)
        words += want.stats.words_emitted
        _assert_same(want, swept.decode(scores), ("composed", threshold, i))
        _assert_same(want, traced.decode(scores), ("traced", threshold, i))
        traced_reference.decode(scores)
        assert want.stats.lookup == LookupStats()
    assert swept_sink.counts == reference_sink.counts
    assert words > 0
    # The sweep really moved the regime: kernel frames ran below 10**9.
    assert bool(kernel_frames) == (threshold < 10**9)


@pytest.fixture()
def decoder(tiny_task):
    return OnTheFlyDecoder(
        tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0, max_active=800)
    )


def test_one_call_mixes_scalar_and_solo_segments(
    decoder, tiny_scores, monkeypatch
):
    """Segments on both sides of the threshold in the same
    ``push_sessions`` call: one stays in scalar runs throughout, another
    takes the numpy kernels, each stepped on its own, and nobody can
    tell.  Which threshold splits them depends on the utterances, so
    the sweep starts at the median frontier size and walks outwards."""
    reference = _decode_each(decoder, tiny_scores)
    sizes = sorted({n for r in reference for n in r.stats.active_history})
    median = sizes[len(sizes) // 2]
    thresholds = sorted(sizes, key=lambda size: abs(size - median))
    # Per segment: the frames it consumed in each regime.
    frames = {}
    step_one, run = batch._step_one, decoder._scalar_run

    def tally(seg):
        return frames.setdefault(id(seg), {"scalar": 0, "solo": 0})

    def spy_run(seg, rows, limit=float("inf")):
        consumed = run(seg, rows, limit)
        tally(seg)["scalar"] += consumed
        return consumed

    def spy_one(decoder, seg, row):
        tally(seg)["solo"] += 1
        return step_one(decoder, seg, row)

    monkeypatch.setattr(batch, "_step_one", spy_one)
    monkeypatch.setattr(decoder, "_scalar_run", spy_run)
    for threshold in thresholds:
        monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", threshold)
        expected = _decode_each(decoder, tiny_scores)
        frames.clear()
        got = _pushed_together(decoder, tiny_scores)
        # Every frame of every utterance was consumed exactly once.
        assert sum(f["scalar"] + f["solo"] for f in frames.values()) == sum(
            m.shape[0] for m in tiny_scores
        )
        for i, (want, have) in enumerate(zip(expected, got)):
            _assert_same(want, have, ("mixed", threshold, i))
        if any(not f["solo"] for f in frames.values()) and any(
            f["solo"] for f in frames.values()
        ):
            break
    else:
        pytest.fail("no threshold split scalar-only and kernel segments")
    # Same transcripts as at the shipped threshold, too.
    for want, have in zip(reference, got):
        _assert_same(want, have, "vs default")


def test_replay_in_scalar_regime_continues_across_a_regime_flip(
    tiny_task, tiny_scores, monkeypatch
):
    """A session resumed by replay on another decoder, cut while its
    frames ran scalar, follows the straight session through the flip
    to the numpy kernels."""
    config = DecoderConfig(beam=14.0, max_active=800)
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    scores = max(tiny_scores, key=lambda m: m.shape[0])
    history = _decode_each(decoder, [scores])[0].stats.active_history
    # ``history[i]`` tokens leave frame ``i`` and enter frame ``i + 1``.
    # Cut after a frame that ran scalar, with a larger frontier ahead.
    threshold, cut = next(
        (history[i], i + 2)
        for i in range(len(history) - 2)
        if history[i] < max(history[i + 1 :])
    )
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", threshold)

    straight = StreamingSession(decoder)
    straight.push(scores[:cut])
    assert isinstance(straight._seg.table, TokenTable)  # the scalar regime's

    fresh = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
    resumed = StreamingSession(fresh)
    for start in range(0, cut, 3):
        resumed.push(scores[start : min(start + 3, cut)])
    assert isinstance(resumed._seg.table, TokenTable)
    flipped = False
    for start in range(cut, scores.shape[0], 3):
        want = straight.push(scores[start : start + 3])
        assert resumed.push(scores[start : start + 3]) == want
        flipped |= isinstance(straight._seg.table, SoaTokenTable) and len(
            straight._seg.table
        ) > 0
    assert flipped
    _assert_same(straight.finish(), resumed.finish(), "replayed")


def _without_word(lm, word):
    """A copy of ``lm`` with no arc of ``word``: every walk of it backs
    off to the unigram state and finds it missing there too, against
    the Section 3.3 guarantee that every walk ends in a match."""
    fst = lm.fst.copy()
    fst.arcs = [[a for a in arcs if a.ilabel != word] for arcs in fst.arcs]
    return dataclasses.replace(lm, fst=fst)


@pytest.mark.parametrize("kind", ["on-the-fly", "composed"])
def test_an_exhausted_word_raises_alike_in_both_regimes(
    kind, tiny_task, tiny_scores, monkeypatch
):
    """A decoded word the unigram state lacks raises the same
    ``LookupError`` from the kernels' epsilon phase as from the scalar
    body's."""
    plain = OnTheFlyDecoder(tiny_task.am, tiny_task.lm).decode(tiny_scores[0])
    word = plain.word_ids[0]
    lm = _without_word(tiny_task.lm, word)
    make = FullyComposedDecoder if kind == "composed" else OnTheFlyDecoder
    messages = []
    regimes = ((0, "_epsilon_phase_batched"), (10**9, "_epsilon_scalar"))
    for limit, phase in regimes:
        monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", limit)
        decoder = make(tiny_task.am, lm, DecoderConfig(beam=14.0))
        with pytest.raises(LookupError) as raised:
            decoder.decode(tiny_scores[0])
        assert phase in {entry.name for entry in raised.traceback}
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"word {word} not found at the unigram state")


def test_profiled_decode_takes_the_same_regimes(
    tiny_task, tiny_scores, monkeypatch
):
    """``profile=True`` only reads clocks: same stats, and a phase
    breakdown that adds up — the kernels' section
    clocks sitting *under* ``expand`` and ``epsilon``."""
    sections = {
        "expand": ("prune", "gather", "plan", "fill"),
        "epsilon": ("seeds", "pairs"),
    }
    config = DecoderConfig(beam=14.0)
    for limit in (batch.SCALAR_FRONTIER_MAX, 0):
        monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", limit)
        plain = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, config)
        profiled = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, dataclasses.replace(config, profile=True)
        )
        for i, (want, got) in enumerate(
            zip(
                _decode_each(plain, tiny_scores),
                _decode_each(profiled, tiny_scores),
            )
        ):
            _assert_same(want, got, ("profile", limit, i))
        phases = profiled.last_phase_seconds
        assert set(phases) == {
            "expand", "epsilon", "other", "total",
            *sections["expand"], *sections["epsilon"],
        }
        assert phases["expand"] > 0 and phases["epsilon"] > 0
        assert phases["total"] == pytest.approx(
            phases["expand"] + phases["epsilon"] + phases["other"]
        )
        for parent, names in sections.items():
            assert sum(phases[name] for name in names) <= phases[parent]
            if limit == 0:  # every frame took the kernels
                assert all(phases[name] > 0 for name in names)
        assert plain.last_phase_seconds is None


def test_unprofiled_decode_reads_no_clock(tiny_task, tiny_scores, monkeypatch):
    """Every ``perf_counter`` in the frame step sits behind the profile
    switch, in every regime."""
    from repro.core import decoder as decoder_module

    def no_clock():
        raise AssertionError("clock read without profile=True")

    monkeypatch.setattr(batch, "perf_counter", no_clock)
    monkeypatch.setattr(decoder_module, "perf_counter", no_clock)
    for limit in (0, 10**9):
        monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", limit)
        decoder = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0)
        )
        assert decoder.decode(tiny_scores[0]).words


def test_traced_decoder_runs_the_scalar_body_on_every_frame(
    tiny_task, tiny_scores, monkeypatch
):
    """A trace sink needs per-event order: scalar whatever the frontier,
    for streamed frames as for decoded ones."""

    class Sink:
        frames = 0

        def on_frame_end(self, frame, active):
            self.frames += 1

        def __getattr__(self, name):  # every other event: ignored
            return lambda *args: None

    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 0)
    sink = Sink()
    traced = OnTheFlyDecoder(
        tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0), sink=sink
    )
    scores = tiny_scores[0]
    decoded = traced.decode(scores)
    session = StreamingSession(traced)
    session.push(scores)
    assert isinstance(session._seg.table, TokenTable)
    assert sink.frames == 2 * scores.shape[0]
    _assert_same(decoded, session.finish(), "traced")
