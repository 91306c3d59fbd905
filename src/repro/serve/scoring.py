"""Serve-side acoustic scoring: feature batches into score batches.

Sessions that negotiate the ``features`` payload stream raw feature
frames and the *server* runs the acoustic model.  The engines stay
score-typed — they only ever receive resolved score matrices — and a
feature batch is scored **at dispatch, where the engine call runs**:
on the event loop.  Server-side scoring is under 2 % of a served frame, so
scoring ahead of the search on a thread of its own only bought GIL
hand-offs (DESIGN.md, "Serving threads").

A push yields a :class:`ScoreHandle`; the scheduler queues handles
exactly like score matrices and resolves them just before the engine
call.  Resolution is idempotent and caches both values and errors, so
the fused dispatcher's replay-on-failure path re-resolves for free.
"""

from __future__ import annotations

import numpy as np


class ScoringError(RuntimeError):
    """The acoustic model failed on a feature batch.

    Carries the original exception as ``__cause__``; every resolver of
    the failed :class:`ScoreHandle` sees this typed error.
    """


class ScoreHandle:
    """One feature batch on its way to being a score batch.

    ``frames`` is known up front (one score row per feature frame), so
    the scheduler can do its frame bookkeeping before resolution.  A
    queued batch belongs to one session and a session is dispatched by
    one engine call at a time, so a handle is never resolved from two
    threads at once and carries no lock.
    """

    __slots__ = ("frames", "_scorer", "_features", "_value", "_error")

    def __init__(self, frames, scorer=None, features=None):
        self.frames = int(frames)
        self._scorer = scorer
        self._features = features
        self._value: np.ndarray | None = None
        self._error: ScoringError | None = None

    @classmethod
    def resolved(cls, value: np.ndarray) -> "ScoreHandle":
        handle = cls(value.shape[0])
        handle._value = value
        return handle

    def result(self) -> np.ndarray:
        """The score matrix; the first call runs the acoustic model.

        Failures surface as :class:`ScoringError` and are cached, so
        every resolver of the same handle sees the same outcome.
        """
        if self._error is not None:
            raise self._error
        if self._value is None:
            try:
                self._value = np.asarray(
                    self._scorer.score(self._features), dtype=np.float64
                )
            except Exception as exc:
                self._error = ScoringError(f"acoustic scoring failed: {exc}")
                raise self._error from exc
            self._scorer = self._features = None
        return self._value


def batch_frames(batch) -> int:
    """How many frames a queued batch advances, without resolving it."""
    if isinstance(batch, ScoreHandle):
        return batch.frames
    return int(batch.shape[0])


class ScoringService:
    """Turn pushed feature batches into handles the scheduler queues."""

    def __init__(self, scorer) -> None:
        if scorer is None:
            raise ValueError("a ScoringService needs an acoustic scorer")
        self.scorer = scorer

    def submit(self, features: np.ndarray) -> ScoreHandle:
        """Accept one feature batch; it is scored when resolved.
        Zero-frame keep-alives skip the scorer entirely and resolve to
        the ``(0, 0)`` wire form."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(
                f"feature batch must be 2-D, got shape {features.shape}"
            )
        if features.shape[0] == 0:
            return ScoreHandle.resolved(np.zeros((0, 0)))
        return ScoreHandle(
            features.shape[0], scorer=self.scorer, features=features
        )
