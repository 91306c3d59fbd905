"""Streaming-session tests: batched decoding equals offline decoding."""

import numpy as np
import pytest

from repro.asr.streaming import StreamingSession, decode_streaming
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.core.tokens import SoaTokenTable, TokenTable


@pytest.fixture(scope="module")
def decoder(tiny_task):
    return OnTheFlyDecoder(tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0))


class TestStreaming:
    @pytest.mark.parametrize("batch_frames", [1, 7, 32, 1000])
    def test_equals_offline_decode(self, decoder, tiny_scores, batch_frames):
        """Batch size must not change the result (pure pipelining)."""
        offline = decoder.decode(tiny_scores[0])
        streamed, partials = decode_streaming(
            decoder, tiny_scores[0], batch_frames=batch_frames
        )
        assert streamed.words == offline.words
        if offline.success:
            assert streamed.cost == pytest.approx(offline.cost, rel=1e-9)
        assert partials[-1].frames_consumed == tiny_scores[0].shape[0]

    def test_partials_progress(self, decoder, tiny_scores):
        _, partials = decode_streaming(decoder, tiny_scores[1], batch_frames=20)
        frames = [p.frames_consumed for p in partials]
        assert frames == sorted(frames)
        assert all(p.active_tokens > 0 for p in partials)
        # Hypotheses can only grow or be revised, never vanish entirely
        # once words have been committed.
        assert len(partials[-1].words) >= 0

    def test_session_single_use(self, decoder, tiny_scores):
        session = StreamingSession(decoder)
        session.push(tiny_scores[0][:10])
        session.finish()
        with pytest.raises(RuntimeError):
            session.push(tiny_scores[0][10:])
        with pytest.raises(RuntimeError):
            session.finish()

    def test_bad_batch_rejected(self, decoder):
        session = StreamingSession(decoder)
        with pytest.raises(ValueError):
            session.push(np.zeros((4,)))

    def test_wrong_width_zero_frame_batch_rejected(self, decoder):
        """The width check runs before the empty-batch early return: a
        (0, k) batch with a wrong senone width is malformed even though
        it carries no frames.  Only (0, 0) — the shape an empty wire
        payload decodes to — stays a legal keep-alive."""
        session = StreamingSession(decoder)
        with pytest.raises(ValueError):
            session.push(np.zeros((0, 2)))
        partial = session.push(np.zeros((0, 0)))
        assert partial.frames_consumed == 0

    def test_bad_batch_size_rejected(self, decoder, tiny_scores):
        with pytest.raises(ValueError):
            decode_streaming(decoder, tiny_scores[0], batch_frames=0)

    def test_stats_accumulate(self, decoder, tiny_scores):
        result, _ = decode_streaming(decoder, tiny_scores[0], batch_frames=16)
        assert result.stats.frames == tiny_scores[0].shape[0]
        assert result.stats.expansions > 0
        assert len(result.stats.active_history) == result.stats.frames


class TestStreamingFastPath:
    """The session's vectorized dispatch mirrors decode()'s parity."""

    def _stream(self, tiny_task, scores, vectorized, batch_frames):
        decoder = OnTheFlyDecoder(
            tiny_task.am,
            tiny_task.lm,
            DecoderConfig(beam=14.0, vectorized=vectorized),
        )
        session = StreamingSession(decoder)
        assert decoder._vectorized == (
            vectorized and decoder._arcs.pure_emitting
        )
        partials = []
        for start in range(0, scores.shape[0], batch_frames):
            partials.append(session.push(scores[start : start + batch_frames]))
        return session.finish(), partials

    @pytest.mark.parametrize("batch_frames", [1, 7, 32])
    def test_vectorized_equals_scalar_bitwise(
        self, tiny_task, tiny_scores, batch_frames
    ):
        """Not just same words: identical costs, DecoderStats and every
        intermediate partial — the offline parity contract, streamed."""
        for scores in tiny_scores[:3]:
            scalar, scalar_partials = self._stream(
                tiny_task, scores, False, batch_frames
            )
            vec, vec_partials = self._stream(
                tiny_task, scores, True, batch_frames
            )
            assert vec.words == scalar.words
            assert vec.cost == scalar.cost
            assert vec.stats == scalar.stats
            assert vec_partials == scalar_partials

    def test_fast_path_equals_offline(self, tiny_task, tiny_scores):
        offline = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0)
        ).decode(tiny_scores[0])
        # A session never resets the decoder's transient caches (serving
        # interleaves sessions), so stats parity needs a cold decoder.
        fresh = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0)
        )
        streamed, _ = decode_streaming(fresh, tiny_scores[0], batch_frames=9)
        assert streamed.words == offline.words
        assert streamed.cost == offline.cost
        assert streamed.stats == offline.stats


class TestStreamingEdgeCases:
    def test_zero_frame_batch_is_keepalive(self, decoder, tiny_scores):
        session = StreamingSession(decoder)
        before = session.push(tiny_scores[0][:10])
        num_senones = tiny_scores[0].shape[1]
        keepalive = session.push(np.zeros((0, num_senones)))
        assert keepalive == before
        assert session.frames_consumed == 10

    def test_finish_with_no_pushes(self, decoder):
        session = StreamingSession(decoder)
        result = session.finish()
        assert result.words == []
        assert result.stats.frames == 0

    def test_zero_frame_only_equals_no_pushes(self, decoder, tiny_scores):
        empty = np.zeros((0, tiny_scores[0].shape[1]))
        session = StreamingSession(decoder)
        partial = session.push(empty)
        assert partial.frames_consumed == 0
        assert partial.active_tokens == 1  # just the start token
        via_keepalive = session.finish()
        direct = StreamingSession(decoder).finish()
        assert via_keepalive.words == direct.words
        assert via_keepalive.success == direct.success

    @pytest.mark.parametrize(
        "empty_table", [TokenTable(), SoaTokenTable(1)]
    )
    def test_partial_on_emptied_beam(self, decoder, tiny_scores, empty_table):
        """A beam that pruned everything still yields a sane partial
        (both table layouts)."""
        session = StreamingSession(decoder)
        session.push(tiny_scores[0][:5])
        session._seg.table = empty_table
        partial = session._partial()
        assert partial.words == []
        assert partial.cost == np.inf
        assert partial.active_tokens == 0
