"""Streaming decoding sessions (Section 5.2's batched operation).

In the deployed system the GPU scores speech in batches of N frames
while the accelerator decodes the previous batch.  That requires the
decoder to accept scores *incrementally* and to surface partial
hypotheses between batches — this module provides that session API on
top of the one-pass decoder's internals.

    session = StreamingSession(decoder)
    for batch in score_batches:          # (n_frames, senones) chunks
        partial = session.push(batch)    # best hypothesis so far
    result = session.finish()            # final DecodeResult
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.batch import advance_segment
from repro.core.decoder import DecodeResult, OnTheFlyDecoder
from repro.core.tokens import SoaTokenTable


@dataclass
class PartialHypothesis:
    """Best in-flight hypothesis after a batch."""

    words: list[str]
    cost: float
    frames_consumed: int
    active_tokens: int


class StreamingSession:
    """Incremental decoding over one utterance.

    The session's state is one :class:`~repro.core.batch.BatchSegment`
    and its frames go through the same
    :func:`~repro.core.batch.advance_segment` as
    :meth:`~repro.core.decoder.OnTheFlyDecoder.decode`'s, so it takes
    the same regime on every frame (scalar for small frontiers and
    always under a trace sink, numpy kernels otherwise) and produces
    bit-identical partials, results and :class:`DecoderStats` — the
    streaming analogue of the offline decoder's parity contract.
    Several sessions advance in one call through :func:`push_sessions`
    (the serving layer's one engine call per scheduler cycle), each
    still stepped on its own.
    """

    def __init__(self, decoder: OnTheFlyDecoder, lookup=None) -> None:
        self.decoder = decoder
        # Sessions default to the decoder's own lookup; a serving layer
        # running several sessions on one decoder passes each a
        # ``decoder.lookup.fork()`` instead, giving every session its
        # own lookup counters (solo-identical).
        self._seg = decoder.new_segment(lookup)
        self._finished = False
        # Lookup-counter baseline so finish() can report this
        # utterance's delta, as decode() does.  With several sessions
        # interleaved on one decoder (the serving layer), the delta is
        # decoder-wide over the session's lifetime rather than
        # per-utterance — unless each session got its own fork;
        # transcripts are unaffected either way.
        self._lookup_start = self._seg.lookup.stats.clone()
        # The last partial's best lattice node and its words: a node's
        # backtrace never changes, so a push that leaves the best token
        # on the same node reuses them.
        self._partial_node = -1
        self._partial_words: list[str] = []

    @property
    def frames_consumed(self) -> int:
        return self._seg.frame

    def push(self, scores: np.ndarray) -> PartialHypothesis:
        """Consume one batch of frames; returns the running best guess."""
        return push_sessions([self], [scores])[0]

    def _partial(self) -> PartialHypothesis:
        best_cost = math.inf
        best_node = -1
        table = self._seg.table
        if isinstance(table, SoaTokenTable):
            # Column order is iteration order, and argmin returns the
            # first minimum — the same winner the scalar scan picks.
            _, _, cost_col, node_col = table.columns()
            if cost_col.shape[0]:
                best = int(np.argmin(cost_col))
                best_cost = float(cost_col[best])
                best_node = int(node_col[best])
        elif table.cost:
            # ``min`` returns the first minimum too.
            best = min(table.cost, key=table.cost.__getitem__)
            best_cost = table.cost[best]
            best_node = table.node[best]
        if best_node != self._partial_node:
            self._partial_node = best_node
            self._partial_words = (
                [
                    self.decoder.lm.words.symbol_of(w)
                    for w in self._seg.lattice.backtrace(best_node)
                ]
                if best_node >= 0
                else []
            )
        return PartialHypothesis(
            words=list(self._partial_words),
            cost=best_cost,
            frames_consumed=self._seg.frame,
            active_tokens=len(table),
        )

    def finish(self) -> DecodeResult:
        """Terminate the utterance and return the final result."""
        if self._finished:
            raise RuntimeError("session already finished")
        self._finished = True
        seg = self._seg
        seg.stats.frames = seg.frame
        seg.stats.lookup = seg.lookup.stats.since(self._lookup_start)
        return self.decoder._finalize(seg.table, seg.lattice, seg.stats)


def push_sessions(
    sessions: list[StreamingSession],
    batches: list[np.ndarray],
) -> list[PartialHypothesis]:
    """Advance several sessions through their batches in one call.

    The serving layer's one engine call per scheduler cycle: every
    batch is validated first, then each session's segment consumes its
    batch in turn through :func:`~repro.core.batch.advance_segment`
    (batches may be ragged; zero-frame batches are keep-alives).  So
    each session's partials, final result and stats are exactly those
    of pushing its batch alone, in the same order — whether or not the
    sessions share a decoder or a lookup.
    """
    if len(sessions) != len(batches):
        raise ValueError("one score batch per session required")
    # Validate everything before touching anyone's state: a caller
    # seeing an exception from here may retry the batches one session
    # at a time (to attribute the failure), which is only safe when a
    # raise implies no session advanced.
    matrices = []
    for session, scores in zip(sessions, batches):
        if session._finished:
            raise RuntimeError("session already finished")
        # Width is validated even on zero-frame batches: a (0, k) batch
        # with a wrong senone width is a malformed client payload.  The
        # one zero-frame shape with no width information — (0, 0), what
        # an empty wire payload decodes to — stays a legal keep-alive.
        if scores.ndim != 2 or (
            scores.shape[1] < session.decoder.am.num_senones
            and scores.shape != (0, 0)
        ):
            raise ValueError(f"bad score batch shape {scores.shape}")
        matrices.append(np.ascontiguousarray(scores, dtype=np.float64))
    for session, matrix in zip(sessions, matrices):
        advance_segment(session.decoder, session._seg, matrix)
    return [session._partial() for session in sessions]


def decode_streaming(
    decoder: OnTheFlyDecoder, scores: np.ndarray, batch_frames: int = 32
) -> tuple[DecodeResult, list[PartialHypothesis]]:
    """Decode in fixed-size batches, as the GPU+accelerator pipeline does."""
    if batch_frames <= 0:
        raise ValueError("batch_frames must be positive")
    session = StreamingSession(decoder)
    partials = []
    for start in range(0, scores.shape[0], batch_frames):
        partials.append(session.push(scores[start : start + batch_frames]))
    return session.finish(), partials

