"""Acoustic scorer interface.

A scorer turns a feature matrix (frames x dim) into a log-likelihood
matrix (frames x senones) — the contents of the accelerator's Acoustic
Likelihood Buffer.  Three families are provided, mirroring the decoders
the paper evaluates: GMM (Kaldi-Tedlium/Voxforge), DNN
(Kaldi-Librispeech) and RNN (EESEN-Tedlium).

Each scorer also reports its parameter footprint (Figure 2's dataset
sizing) and per-frame arithmetic cost (the GPU timing model's input for
Figures 1, 12 and 13).

GMM and DNN frames score independently.  A recurrent scorer (the RNN;
see :func:`is_recurrent`) carries state from frame to frame, and offers
``stream()``, a scorer of one utterance fed a block of rows at a time,
and ``score_blocks()``, the rows of ``score()`` a block at a time.
"""

from __future__ import annotations

import enum
from typing import Protocol, runtime_checkable

import numpy as np


class ScorerKind(enum.Enum):
    GMM = "gmm"
    DNN = "dnn"
    RNN = "rnn"


@runtime_checkable
class AcousticScorer(Protocol):
    """What the decoding pipeline requires from an acoustic front-end."""

    kind: ScorerKind

    @property
    def num_senones(self) -> int: ...

    @property
    def size_bytes(self) -> int: ...

    @property
    def flops_per_frame(self) -> float: ...

    def score(self, features: np.ndarray) -> np.ndarray:
        """Log-likelihoods, shape (frames, senones)."""
        ...


def is_recurrent(scorer: AcousticScorer) -> bool:
    """Whether ``scorer`` carries state from frame to frame, by its
    declared ``kind`` (a scorer that declares none is frame-parallel)."""
    return getattr(scorer, "kind", None) is ScorerKind.RNN


def frame_accuracy(scores: np.ndarray, alignment: list[int]) -> float:
    """Fraction of frames whose argmax senone matches the reference.

    A quick scorer-quality diagnostic used by tests: a working scorer is
    far above chance even with noisy features.
    """
    if scores.shape[0] != len(alignment):
        raise ValueError("scores and alignment disagree on frame count")
    predictions = scores.argmax(axis=1)
    return float(np.mean(predictions == np.asarray(alignment)))


def check_score_matrix(scores: np.ndarray, num_senones: int) -> None:
    """Validate a scorer output before it reaches the decoder."""
    if scores.ndim != 2:
        raise ValueError(f"score matrix must be 2-D, got shape {scores.shape}")
    if scores.shape[1] != num_senones:
        raise ValueError(
            f"score matrix has {scores.shape[1]} senones, expected {num_senones}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("score matrix contains non-finite values")
