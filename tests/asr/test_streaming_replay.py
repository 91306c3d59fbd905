"""Resuming a streaming session by replay.

A session's search state is never exported: a session whose shard
crashed, or that ``rebalance`` moved, resumes by replaying the client's
pushes from frame 0 into a fresh session.  That is exact only if a
replayed session is bit-identical to the one it replaces — the partial
it reports, the lookup counters its continuation starts from, and then
every partial, word, cost, lattice
node, decoder stat and lookup counter up to the final result — at any
cut, in any batching, on either hot loop and under any lookup hardware
a trace sink models.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.accel import UNFOLD, LookupStrategy, OnTheFlyLayout
from repro.accel.sink import UnfoldSink
from repro.asr import KALDI_VOXFORGE, build_scorer, build_task
from repro.asr.streaming import StreamingSession, push_sessions
from repro.core import DecoderConfig, OnTheFlyDecoder, batch
from tests.asr.test_batched_sessions import LOOKUP_COUNTERS, _lattice_nodes

BATCH = 8


def _decoder(task, **config):
    return OnTheFlyDecoder(
        task.am, task.lm, DecoderConfig(beam=14.0, **config)
    )


def _session(decoder):
    return StreamingSession(decoder)


def _batches(scores, start=0, stop=None):
    stop = scores.shape[0] if stop is None else stop
    return [scores[a : min(a + BATCH, stop)] for a in range(start, stop, BATCH)]


def _replay(decoder, batches):
    """A fresh session fed ``batches`` from frame 0."""
    session = _session(decoder)
    for scores in batches:
        session.push(scores)
    return session


def _lookup_state(session):
    """The session's lookup counters."""
    return dataclasses.asdict(session._seg.stats.lookup)


def _assert_same_state(live, replayed):
    """The replayed session stands where the live one stands."""
    assert replayed.frames_consumed == live.frames_consumed
    assert replayed._seg.stats == live._seg.stats
    assert _lattice_nodes(replayed._seg.lattice) == _lattice_nodes(
        live._seg.lattice
    )
    assert _lookup_state(replayed) == _lookup_state(live)
    # An empty push re-reports the current partial hypothesis.
    assert replayed.push(np.zeros((0, 0))) == live.push(np.zeros((0, 0)))


def _assert_same(want, got):
    assert got.words == want.words
    assert got.cost == want.cost
    assert got.finals == want.finals
    assert _lattice_nodes(got.lattice) == _lattice_nodes(want.lattice)
    for f in dataclasses.fields(want.stats):
        if f.name != "lookup":
            assert getattr(got.stats, f.name) == getattr(want.stats, f.name), (
                f.name
            )
    for name in LOOKUP_COUNTERS:
        assert getattr(got.stats.lookup, name) == getattr(
            want.stats.lookup, name
        ), name


def _continue_both(live, replayed, scores):
    """Push the rest to both sessions, partial for partial."""
    for chunk in _batches(scores, live.frames_consumed):
        assert replayed.push(chunk) == live.push(chunk)
    return live.finish(), replayed.finish()


def _cut(scores, where):
    batches = -(-scores.shape[0] // BATCH)
    return {
        "first-batch": BATCH,
        "middle": BATCH * (batches // 2),
        "unaligned": BATCH * (batches // 2) + 3,
        "last-batch": BATCH * (batches - 1),
    }[where]


@pytest.fixture(scope="module")
def wide_task():
    """A task whose frontier runs to thousands of tokens, far past
    ``SCALAR_FRONTIER_MAX``: its frames take the numpy kernels and
    their batched epsilon phase."""
    task = build_task(
        KALDI_VOXFORGE.with_overrides(
            name="voxforge-wide", vocab_size=80, corpus_sentences=800
        )
    )
    scorer = build_scorer(task, oracle_gmm=True)
    utterances = task.test_set(2, max_words=4)
    return task, [scorer.score(u.features) for u in utterances]


class TestReplay:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize(
        "where", ["first-batch", "middle", "unaligned", "last-batch"]
    )
    @pytest.mark.parametrize("batching", ["as-delivered", "one-push"])
    def test_replay_is_bit_identical(
        self, tiny_task, tiny_scores, vectorized, where, batching
    ):
        decoder = _decoder(tiny_task, vectorized=vectorized)
        scores = tiny_scores[1]
        cut = _cut(scores, where)
        delivered = _batches(scores, stop=cut)
        live = _replay(decoder, delivered)
        replayed = _replay(
            decoder, delivered if batching == "as-delivered" else [scores[:cut]]
        )
        _assert_same_state(live, replayed)
        if where == "last-batch":
            # Words have ended: the continuation starts after LM lookups.
            assert live._seg.stats.lookup.lookups > 0
        want, got = _continue_both(live, replayed, scores)
        _assert_same(want, got)

    @pytest.mark.parametrize("strategy", list(LookupStrategy))
    def test_replay_under_each_lookup_strategy(
        self, tiny_task, tiny_scores, strategy
    ):
        """A session traced into an UNFOLD sink replays bit-identically
        whichever lookup hardware the sink models, and the replay's sink
        models the same LM lookups as the live one's."""
        layout = OnTheFlyLayout.build(tiny_task)
        config = replace(UNFOLD.scaled(1 / 16), lookup_strategy=strategy)

        def traced_session():
            sink = UnfoldSink(config, layout, tiny_task)
            decoder = OnTheFlyDecoder(
                tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0), sink=sink
            )
            return StreamingSession(decoder), sink

        scores = tiny_scores[4]
        cut = _cut(scores, "last-batch")
        live, live_sink = traced_session()
        for chunk in _batches(scores, stop=cut):
            live.push(chunk)
        replayed, replayed_sink = traced_session()
        replayed.push(scores[:cut])
        _assert_same_state(live, replayed)
        assert live._seg.stats.words_emitted > 0
        assert live_sink.lookup_model.stats.arc_probes > 0
        assert replayed_sink.lookup_model.stats == live_sink.lookup_model.stats
        want, got = _continue_both(live, replayed, scores)
        _assert_same(want, got)
        assert replayed_sink.lookup_model.stats == live_sink.lookup_model.stats

    @pytest.mark.parametrize("max_active", [5, 50])
    def test_replay_under_max_active(self, tiny_task, tiny_scores, max_active):
        """Truncating the frontier keeps the first of tied tokens, so a
        replay must rebuild the frontier in the same order."""
        decoder = _decoder(tiny_task, max_active=max_active)
        scores = tiny_scores[1]
        cut = _cut(scores, "middle")
        live = _replay(decoder, _batches(scores, stop=cut))
        replayed = _replay(decoder, [scores[:cut]])
        assert list(replayed._seg.table.cost.items()) == list(
            live._seg.table.cost.items()
        )
        _assert_same_state(live, replayed)
        want, got = _continue_both(live, replayed, scores)
        _assert_same(want, got)

    @pytest.mark.parametrize("cut", [2 * BATCH, 5 * BATCH])
    def test_replay_continues_through_kernel_frames(self, wide_task, cut):
        """Cut after frames that took the numpy kernels, the replay
        stands where the live session stands and continues with it,
        partial for partial."""
        task, utterances = wide_task
        decoder = _decoder(task)
        for scores in utterances:
            delivered = _batches(scores, stop=cut)
            live = _replay(decoder, delivered)
            assert max(live._seg.stats.active_history) > batch.SCALAR_FRONTIER_MAX
            replayed = _replay(decoder, delivered)
            _assert_same_state(live, replayed)
            want, got = _continue_both(live, replayed, scores)
            _assert_same(want, got)

    @pytest.mark.parametrize(
        "live_vectorized", [True, False], ids=["vectorized-live", "scalar-live"]
    )
    def test_replay_on_the_other_hot_loop(self, wide_task, live_vectorized):
        """A session replayed on a decoder with the other hot loop (a
        shard configured differently) continues identically."""
        task, utterances = wide_task
        scores = utterances[0]
        cut = 2 * BATCH
        live = _replay(
            _decoder(task, vectorized=live_vectorized), _batches(scores, stop=cut)
        )
        replayed = _replay(
            _decoder(task, vectorized=not live_vectorized), [scores[:cut]]
        )
        assert replayed._seg.stats == live._seg.stats
        want, got = _continue_both(live, replayed, scores)
        _assert_same(want, got)

    def test_replay_on_a_rebuilt_decoder(self, tiny_task, tiny_scores):
        """The shard a session moves to built its own decoder."""
        scores = tiny_scores[0]
        cut = _cut(scores, "middle")
        live = _replay(_decoder(tiny_task), _batches(scores, stop=cut))
        replayed = _replay(_decoder(tiny_task), _batches(scores, stop=cut))
        _assert_same_state(live, replayed)
        want, got = _continue_both(live, replayed, scores)
        _assert_same(want, got)

    def test_one_recording_seeds_several_replays(self, tiny_task, tiny_scores):
        decoder = _decoder(tiny_task)
        scores = tiny_scores[1]
        cut = _cut(scores, "middle")
        delivered = _batches(scores, stop=cut)
        live = _replay(decoder, delivered)
        finals = []
        for _ in range(2):
            replayed = _replay(decoder, delivered)
            for chunk in _batches(scores, cut):
                replayed.push(chunk)
            finals.append(replayed.finish())
        for chunk in _batches(scores, cut):
            live.push(chunk)
        want = live.finish()
        for got in finals:
            _assert_same(want, got)

    def test_replay_leaves_the_live_session_alone(self, tiny_task, tiny_scores):
        """A replay running on the same decoder while the session it
        copies keeps decoding changes neither of them."""
        scores = tiny_scores[4]
        solo = _replay(_decoder(tiny_task), _batches(scores)).finish()
        decoder = _decoder(tiny_task)
        cut = _cut(scores, "middle")
        live = _replay(decoder, _batches(scores, stop=cut))
        replayed = _session(decoder)
        for chunk in _batches(scores):
            if live.frames_consumed < scores.shape[0]:
                live.push(scores[live.frames_consumed : live.frames_consumed + BATCH])
            replayed.push(chunk)
        _assert_same(solo, live.finish())
        _assert_same(solo, replayed.finish())

    def test_replay_catches_up_in_one_engine_call(self, tiny_task, tiny_scores):
        """The serving layer's engine call advances a replaying session
        (all its frames at once) beside live ones (one batch each)."""
        decoder = _decoder(tiny_task)
        recorded, other = tiny_scores[1], tiny_scores[4]
        solos = [
            _replay(decoder, _batches(m)).finish() for m in (recorded, other)
        ]
        cut = _cut(recorded, "middle")
        replayed, live = _session(decoder), _session(decoder)
        push_sessions([replayed, live], [recorded[:cut], other[:BATCH]])
        for chunk in _batches(recorded, cut):
            start = live.frames_consumed
            push_sessions([replayed, live], [chunk, other[start : start + BATCH]])
        while live.frames_consumed < other.shape[0]:
            live.push(other[live.frames_consumed : live.frames_consumed + BATCH])
        _assert_same(solos[0], replayed.finish())
        _assert_same(solos[1], live.finish())

    def test_replay_after_a_lost_final(self, tiny_task, tiny_scores):
        """A client that never saw its final result re-sends every
        batch and the ``finish``: the result is the same one."""
        decoder = _decoder(tiny_task)
        scores = tiny_scores[0]
        want = _replay(decoder, _batches(scores)).finish()
        got = _replay(decoder, _batches(scores)).finish()
        _assert_same(want, got)

    def test_keep_alives_need_no_replay(self, tiny_task, tiny_scores):
        """Zero-frame batches carry no state: a replay without them
        stands where the session that received them stands."""
        decoder = _decoder(tiny_task)
        scores = tiny_scores[0]
        cut = _cut(scores, "middle")
        live = _session(decoder)
        for chunk in _batches(scores, stop=cut):
            live.push(np.zeros((0, 0)))
            live.push(chunk)
            live.push(scores[:0])
        replayed = _replay(decoder, [scores[:cut]])
        _assert_same_state(live, replayed)
        want, got = _continue_both(live, replayed, scores)
        _assert_same(want, got)

    def test_replay_on_a_shared_lookup_keeps_the_transcript(
        self, tiny_task, tiny_scores
    ):
        """The replay runs on the lookup other utterances used: the
        lookup keeps no state across decodes, so neither the decode nor
        its lookup counters differ."""
        decoder = _decoder(tiny_task)
        scores = tiny_scores[1]
        want = _replay(decoder, _batches(scores)).finish()
        for matrix in tiny_scores:
            decoder.decode(matrix)
        shared = StreamingSession(decoder)
        for chunk in _batches(scores):
            shared.push(chunk)
        got = shared.finish()
        assert got.words == want.words
        assert got.cost == want.cost
        assert _lattice_nodes(got.lattice) == _lattice_nodes(want.lattice)
        assert got.stats == want.stats
