"""``push_sessions``: multi-session streaming, bit-exact.

The serving layer advances concurrent streaming sessions through one
engine call per scheduler cycle via
:func:`repro.asr.streaming.push_sessions`.  Its contract: every
session's partials, final result, lattice, stats and lookup counters
must be bit-identical to pushing that session's batches alone (on the
same decoder and lookup) and to a cold offline decode — every ``DecoderStats``
field and every lookup counter (lookups, OLT hits/misses, back-off
arcs, preemptive prunes) — across tight beams, tiny
token caps, disabled preemptive pruning and random small tasks; ragged
batches and zero-frame batches must retire sessions cleanly; and
validation must complete before any session mutates so callers can
retry per-session after an exception.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import GmmAcousticModel
from repro.asr import TINY, build_task
from repro.asr.streaming import StreamingSession, push_sessions
from repro.core import DecoderConfig, OnTheFlyDecoder

#: The ``LookupStats`` counters the search drives, asserted by name so
#: that a failure names the counter.
LOOKUP_COUNTERS = (
    "lookups",
    "arc_probes",
    "olt_hits",
    "olt_misses",
    "backoff_arcs_taken",
)


@pytest.fixture(scope="module")
def decoder(tiny_task):
    return OnTheFlyDecoder(
        tiny_task.am,
        tiny_task.lm,
        DecoderConfig(beam=14.0, max_active=800, vectorized=True),
    )


def _lattice_nodes(lattice):
    return [(n.word, n.frame, n.cost, n.backpointer) for n in lattice.nodes]


def _assert_identical(reference, got, label=""):
    """Two lists of results equal down to lattices, every
    ``DecoderStats`` field and every lookup counter."""
    assert len(reference) == len(got)
    for i, (ref, res) in enumerate(zip(reference, got)):
        context = (label, i)
        assert ref.words == res.words, context
        assert ref.cost == res.cost, context
        assert ref.finals == res.finals, context
        assert _lattice_nodes(ref.lattice) == _lattice_nodes(res.lattice), (
            context
        )
        for f in dataclasses.fields(ref.stats):
            if f.name == "lookup":
                continue
            assert getattr(ref.stats, f.name) == getattr(res.stats, f.name), (
                *context,
                f.name,
            )
        for name in LOOKUP_COUNTERS:
            assert getattr(ref.stats.lookup, name) == getattr(
                res.stats.lookup, name
            ), (*context, f"lookup.{name}")


_TASK_CACHE: dict[int, tuple] = {}


def _task(seed: int):
    """A random small task and five of its utterances' score matrices."""
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


def _offline_reference(decoder, scores):
    """Each utterance decoded offline."""
    return [decoder.decode(matrix) for matrix in scores]


def _pushed_together(decoder, scores):
    """Every utterance in one ``push_sessions`` call, one session each."""
    sessions = [StreamingSession(decoder) for _ in scores]
    push_sessions(sessions, scores)
    return [session.finish() for session in sessions]


def _solo_reference(decoder, scores, chunk):
    """Each stream pushed alone on a fresh session."""
    partials, results = [], []
    for matrix in scores:
        session = StreamingSession(decoder)
        parts = [
            session.push(matrix[start : start + chunk])
            for start in range(0, max(matrix.shape[0], 1), chunk)
        ]
        partials.append(parts)
        results.append(session.finish())
    return partials, results


def _fused_run(decoder, scores, chunk):
    sessions = [StreamingSession(decoder) for _ in scores]
    partials = [[] for _ in scores]
    longest = max(max(s.shape[0] for s in scores), 1)
    for start in range(0, longest, chunk):
        batches = [s[start : start + chunk] for s in scores]
        for i, partial in enumerate(push_sessions(sessions, batches)):
            partials[i].append(partial)
    return partials, [session.finish() for session in sessions]


def _assert_parity(ref, got):
    ref_partials, ref_results = ref
    got_partials, got_results = got
    for i, (rp, gp) in enumerate(zip(ref_partials, got_partials)):
        # The fused driver keeps pushing zero-frame keep-alives to
        # already-drained sessions; each re-reads the last hypothesis.
        assert len(gp) >= len(rp), i
        for j, g in enumerate(gp):
            assert rp[min(j, len(rp) - 1)] == g, (i, j)
    _assert_identical(ref_results, got_results)


class TestFusedSessionParity:
    @pytest.mark.parametrize("chunk", [9, 16])
    def test_lockstep_matches_solo_pushes(
        self, decoder, tiny_scores, chunk
    ):
        scores = tiny_scores[:4]
        _assert_parity(
            _solo_reference(decoder, scores, chunk),
            _fused_run(decoder, scores, chunk),
        )

    def test_ragged_streams_retire_early(self, decoder, tiny_scores):
        scores = [
            s[: max(0, s.shape[0] - 7 * i)]
            for i, s in enumerate(tiny_scores)
        ]
        scores[2] = scores[2][:0]  # a zero-frame stream mid-call
        _assert_parity(
            _solo_reference(decoder, scores, 16),
            _fused_run(decoder, scores, 16),
        )

    def test_shared_lookup_falls_back_to_sequential(
        self, decoder, tiny_scores
    ):
        # Two sessions on the decoder's own lookup: the call advances
        # them one after the other, exactly as two plain pushes would
        # (the shared counters grow in that order either way).
        batches = [tiny_scores[0][:8], tiny_scores[1][:8]]
        together = [StreamingSession(decoder) for _ in batches]
        partials = push_sessions(together, batches)
        alone = [StreamingSession(decoder) for _ in batches]
        assert [s.push(b) for s, b in zip(alone, batches)] == partials
        assert [p.frames_consumed for p in partials] == [8, 8]

    def test_single_session_equals_push(self, decoder, tiny_scores):
        solo = StreamingSession(decoder)
        expected = solo.push(tiny_scores[0][:12])
        fused = StreamingSession(decoder)
        (got,) = push_sessions([fused], [tiny_scores[0][:12]])
        assert got == expected

    def test_empty_input(self):
        assert push_sessions([], []) == []

    @pytest.mark.parametrize(
        "search",
        [
            {"beam": 14.0, "max_active": 800},
            # Frontiers empty out.
            {"beam": 0.5, "max_active": 800},
            # The cap binds on every frame.
            {"beam": 14.0, "max_active": 5},
            {"beam": 14.0, "max_active": 800, "preemptive_pruning": False},
        ],
        ids=["default", "tight-beam", "cap5", "no-preempt"],
    )
    def test_whole_utterances_match_cold_decodes(
        self, tiny_task, tiny_scores, search
    ):
        """Whole ragged utterances, a zero-frame one among them, in one
        call: each session's result is a cold offline decode's."""
        decoder = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(**search)
        )
        scores = [
            s[: max(1, s.shape[0] // (i + 1))]
            for i, s in enumerate(tiny_scores)
        ]
        scores[2] = scores[2][:0]
        _assert_identical(
            _offline_reference(decoder, scores),
            _pushed_together(decoder, scores),
            search,
        )


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=6.0, max_value=18.0),
    st.sampled_from([0, 5, 800]),
)
def test_pushed_together_equals_cold_decodes_property(
    task_seed, beam, max_active
):
    """Hypothesis sweep: random tasks, beams and caps."""
    task, scores = _task(task_seed)
    decoder = OnTheFlyDecoder(
        task.am, task.lm, DecoderConfig(beam=beam, max_active=max_active)
    )
    _assert_identical(
        _offline_reference(decoder, scores),
        _pushed_together(decoder, scores),
        "property",
    )


class TestValidation:
    def test_length_mismatch(self, decoder, tiny_scores):
        session = StreamingSession(decoder)
        with pytest.raises(ValueError):
            push_sessions([session], [])

    def test_raises_before_any_session_advances(
        self, decoder, tiny_scores
    ):
        sessions = [StreamingSession(decoder) for _ in range(3)]
        bad = tiny_scores[2][:8, :2]  # too few senone columns
        with pytest.raises(ValueError):
            push_sessions(
                sessions, [tiny_scores[0][:8], tiny_scores[1][:8], bad]
            )
        assert [s.frames_consumed for s in sessions] == [0, 0, 0]

    def test_finished_session_rejected(self, decoder, tiny_scores):
        finished = StreamingSession(decoder)
        finished.finish()
        live = StreamingSession(decoder)
        with pytest.raises(RuntimeError):
            push_sessions(
                [live, finished], [tiny_scores[0][:8], tiny_scores[1][:8]]
            )
        assert live.frames_consumed == 0

    def test_zero_frame_keepalive(self, decoder, tiny_scores):
        sessions = [StreamingSession(decoder) for _ in range(2)]
        push_sessions(sessions, [tiny_scores[0][:8], tiny_scores[1][:8]])
        empty = tiny_scores[1][:0]
        partials = push_sessions(
            sessions, [tiny_scores[0][8:16], empty]
        )
        assert partials[0].frames_consumed == 16
        assert partials[1].frames_consumed == 8
