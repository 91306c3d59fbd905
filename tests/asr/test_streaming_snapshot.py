"""Checkpoint/restore of streaming sessions.

The fault-tolerance layer rests on one invariant: restoring a
:class:`~repro.asr.streaming.SessionSnapshot` and replaying the frames
pushed since must be bit-identical to never having been interrupted —
words, cost, lattice, *and* every decoder/lookup counter.  The paper's
small-per-channel-state argument (Section 3) is what makes the
snapshot cheap; these tests pin down that it is also exact.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.asr import KALDI_VOXFORGE, build_scorer, build_task
from repro.asr.streaming import SessionSnapshot, StreamingSession
from repro.core import DecoderConfig, OnTheFlyDecoder, batch

BATCH = 8


def _decoder(task, vectorized=True):
    return OnTheFlyDecoder(
        task.am, task.lm, DecoderConfig(beam=14.0, vectorized=vectorized)
    )


def _session(decoder):
    return StreamingSession(decoder, lookup=decoder.lookup.fork())


def _stats_dict(result):
    stats = asdict(result.stats)
    stats["lookup"] = asdict(result.stats.lookup)
    return stats


@pytest.fixture(scope="module")
def wide_task():
    """A task whose frontier runs to thousands of tokens, far past
    ``SCALAR_FRONTIER_MAX``: its frames take the numpy kernels, whose
    batched epsilon phase fills the LM expansion cache."""
    task = build_task(
        KALDI_VOXFORGE.with_overrides(
            name="voxforge-wide", vocab_size=80, corpus_sentences=800
        )
    )
    scorer = build_scorer(task, oracle_gmm=True)
    utterances = task.test_set(2, max_words=4)
    return task, [scorer.score(u.features) for u in utterances]


class TestSnapshotRestore:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_restore_is_bit_identical(
        self, tiny_task, tiny_scores, vectorized
    ):
        decoder = _decoder(tiny_task, vectorized)
        scores = tiny_scores[0]
        baseline = _session(decoder)
        interrupted = _session(decoder)
        cut = BATCH  # snapshot after the first batch
        baseline.push(scores[:cut])
        interrupted.push(scores[:cut])
        snapshot = interrupted.snapshot()
        resumed = StreamingSession.restore(decoder, snapshot)
        for start in range(cut, scores.shape[0], BATCH):
            batch = scores[start : start + BATCH]
            assert baseline.push(batch) == resumed.push(batch)
        want = baseline.finish()
        got = resumed.finish()
        assert got.words == want.words
        assert got.cost == want.cost
        assert [asdict(n) for n in got.lattice.nodes] == [
            asdict(n) for n in want.lattice.nodes
        ]
        # The whole stats block — frame work, active history, and the
        # lookup counters the forked caches maintain — must match too:
        # a restore that re-derives state by doing different work would
        # silently skew every cache-efficiency experiment.
        assert _stats_dict(got) == _stats_dict(want)

    def test_one_snapshot_seeds_several_restores(
        self, tiny_task, tiny_scores
    ):
        decoder = _decoder(tiny_task)
        scores = tiny_scores[1]
        session = _session(decoder)
        session.push(scores[:BATCH])
        snapshot = session.snapshot()
        finals = []
        for _ in range(2):
            resumed = StreamingSession.restore(decoder, snapshot)
            resumed.push(scores[BATCH:])
            finals.append(resumed.finish())
        session.push(scores[BATCH:])
        reference = session.finish()
        for final in finals:
            assert final.words == reference.words
            assert final.cost == reference.cost

    def test_snapshot_does_not_alias_live_session(
        self, tiny_task, tiny_scores
    ):
        decoder = _decoder(tiny_task)
        scores = tiny_scores[2]
        session = _session(decoder)
        session.push(scores[:BATCH])
        snapshot = session.snapshot()
        frames_at_snapshot = snapshot.frames
        table_cost = snapshot.table_cost.copy()
        # Keep decoding the live session; the snapshot must not move.
        session.push(scores[BATCH:])
        session.finish()
        assert snapshot.frames == frames_at_snapshot
        np.testing.assert_array_equal(snapshot.table_cost, table_cost)

    def test_snapshot_roundtrips_mid_stream_partial(
        self, tiny_task, tiny_scores
    ):
        decoder = _decoder(tiny_task)
        scores = tiny_scores[3]
        session = _session(decoder)
        partial = session.push(scores[:BATCH])
        snapshot = session.snapshot()
        resumed = StreamingSession.restore(decoder, snapshot)
        assert resumed.frames_consumed == partial.frames_consumed
        # An empty push re-reports the current partial hypothesis.
        assert resumed.push(scores[:0]) == session.push(scores[:0])

    def test_lookup_state_keeps_the_column_format(
        self, tiny_task, tiny_scores
    ):
        """The Offset Lookup Table travels as three full columns — the
        format of every snapshot already pickled or in a worker pipe.
        A snapshot in that format whose dead slots still hold stale
        tags and offsets (what a generation-stamped table exported)
        must pickle, restore and continue like the live session."""
        import pickle

        decoder = _decoder(tiny_task)
        scores = tiny_scores[0]
        cut = scores.shape[0] - BATCH  # words have ended: the OLT has entries
        session = _session(decoder)
        session.push(scores[:cut])
        snapshot = session.snapshot()
        table = snapshot.lookup_state["offset_table"]
        entries = decoder.config.offset_table_entries
        assert sorted(snapshot.lookup_state) == [
            "expansion_states",
            "offset_table",
            "stats",
            "strategy",
        ]
        assert sorted(table) == ["num_entries", "offsets", "tags", "valid"]
        assert table["num_entries"] == entries
        for name, dtype in (
            ("valid", np.bool_),
            ("tags", np.int64),
            ("offsets", np.int64),
        ):
            assert table[name].shape == (entries,), name
            assert table[name].dtype == dtype, name
        assert table["valid"].any()
        dead = ~table["valid"]
        table["tags"][dead] = 0xABCDEF
        table["offsets"][dead] = 12345
        shipped = pickle.loads(pickle.dumps(snapshot))
        resumed = StreamingSession.restore(decoder, shipped)
        again = resumed.snapshot().lookup_state["offset_table"]
        assert np.array_equal(again["valid"], table["valid"])
        live = table["valid"]
        assert np.array_equal(again["tags"][live], table["tags"][live])
        assert np.array_equal(again["offsets"][live], table["offsets"][live])
        session.push(scores[cut:])
        resumed.push(scores[cut:])
        want, got = session.finish(), resumed.finish()
        assert got.words == want.words
        assert got.cost == want.cost
        assert _stats_dict(got) == _stats_dict(want)

    @pytest.mark.parametrize("cut", [2 * BATCH, 5 * BATCH])
    def test_restore_with_resident_lm_rows(self, wide_task, cut):
        """A snapshot that carries LM expansion rows restores them into
        the cache: the continuation re-spends no row a never-interrupted
        session would have found resident."""
        task, utterances = wide_task
        decoder = _decoder(task)
        for scores in utterances:
            baseline = _session(decoder)
            interrupted = _session(decoder)
            baseline.push(scores[:cut])
            interrupted.push(scores[:cut])
            snapshot = interrupted.snapshot()
            assert max(snapshot.stats.active_history) > (
                batch.SCALAR_FRONTIER_MAX
            )
            assert snapshot.lookup_state["expansion_states"]
            resumed = StreamingSession.restore(decoder, snapshot)
            for start in range(cut, scores.shape[0], BATCH):
                chunk = scores[start : start + BATCH]
                assert baseline.push(chunk) == resumed.push(chunk)
            want = baseline.finish()
            got = resumed.finish()
            assert got.words == want.words
            assert got.cost == want.cost
            assert [asdict(n) for n in got.lattice.nodes] == [
                asdict(n) for n in want.lattice.nodes
            ]
            assert _stats_dict(got) == _stats_dict(want)

    def test_state_bytes_is_small(self, tiny_task, tiny_scores):
        # The premise the checkpoint design leans on: per-channel state
        # is tiny (Section 3), so rolling checkpoints are cheap.
        decoder = _decoder(tiny_task)
        session = _session(decoder)
        session.push(tiny_scores[0][:BATCH])
        snapshot = session.snapshot()
        assert isinstance(snapshot, SessionSnapshot)
        assert 0 < snapshot.state_bytes() < 1 << 20


class TestSnapshotErrors:
    def test_snapshot_after_finish_raises(self, tiny_task, tiny_scores):
        decoder = _decoder(tiny_task)
        session = _session(decoder)
        session.push(tiny_scores[0][:BATCH])
        session.finish()
        with pytest.raises(RuntimeError):
            session.snapshot()

    def test_restore_rejects_hot_loop_mismatch(
        self, tiny_task, tiny_scores
    ):
        vec = _decoder(tiny_task, vectorized=True)
        session = _session(vec)
        session.push(tiny_scores[0][:BATCH])
        snapshot = session.snapshot()
        scalar = _decoder(tiny_task, vectorized=False)
        with pytest.raises(ValueError):
            StreamingSession.restore(scalar, snapshot)
