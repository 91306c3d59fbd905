"""The RNN scorer's stream against scoring an utterance whole.

``RnnAcousticModel.score`` is its stream fed the row blocks of
``block_edges``; each block's read-out product must stay on OpenBLAS's
blocked kernel, which the whole utterance's product takes, for the
scores to be the whole product's bit for bit.
"""

import numpy as np
import pytest

from repro.am import RnnAcousticModel
from repro.am.readout import _SMALL_PRODUCT

HIDDEN = 512
SENONES = 120
DIM = 13
LONGEST = 160

_POSTERIOR_FLOOR = 1e-10


class _AsFirstWritten:
    """``RnnAcousticModel.posteriors`` and ``score`` as first written,
    verbatim, over one model.  The reservoir's prefix states stand in
    for ``_run_reservoir`` of each prefix (the recurrence is causal,
    and the reservoir's own test pins it frame by frame), so each
    length costs one read-out product."""

    def __init__(self, model: RnnAcousticModel, features: np.ndarray):
        self._model = model
        self._states = model._run_reservoir(features)
        self.w_out = model.w_out
        self.prior_scale = model.prior_scale
        self.log_priors = model.log_priors
        self.seen_mask = model.seen_mask

    def _run_reservoir(self, features):
        return self._states[: len(features)]

    def posteriors(self, features: np.ndarray) -> np.ndarray:
        """Senone posteriors (least-squares estimates, clip-normalized)."""
        states = self._run_reservoir(features)
        raw = np.maximum(states @ self.w_out, 0.0)
        norm = raw.sum(axis=1, keepdims=True)
        flat = norm[:, 0] <= 0
        if np.any(flat):
            raw[flat] = 1.0
            norm = raw.sum(axis=1, keepdims=True)
        return raw / norm

    def score(self, features: np.ndarray) -> np.ndarray:
        """Scaled log-likelihoods over the whole utterance."""
        posteriors = np.maximum(self.posteriors(features), _POSTERIOR_FLOOR)
        scores = np.log(posteriors) - self.prior_scale * self.log_priors[None, :]
        if self.seen_mask is not None:
            from repro.am.dnn import UNSEEN_SENONE_SCORE

            scores[:, ~self.seen_mask] = UNSEEN_SENONE_SCORE
        return scores


@pytest.fixture(scope="module")
def model():
    """Random weights at the bench's hidden width; no fit."""
    rng = np.random.default_rng(49)
    return RnnAcousticModel(
        w_in=rng.normal(0.0, 1.0 / np.sqrt(DIM), size=(DIM, HIDDEN)),
        # Spectral radius about 0.9 (the circular law), as fit scales it.
        w_rec=rng.normal(0.0, 0.9 / np.sqrt(HIDDEN), size=(HIDDEN, HIDDEN)),
        w_out=rng.normal(0.0, 0.05, size=(HIDDEN, SENONES)),
        log_priors=np.log(rng.dirichlet(np.ones(SENONES))),
        seen_mask=rng.random(SENONES) > 0.05,
    )


@pytest.fixture(scope="module")
def features():
    return np.random.default_rng(50).normal(0.0, 1.0, size=(LONGEST, DIM))


def test_blocks_are_the_fewest_rows_over_the_small_product(model):
    rows = model.block_edges(1000)[1]
    assert (rows - 1) * HIDDEN * SENONES <= _SMALL_PRODUCT
    assert rows * HIDDEN * SENONES > _SMALL_PRODUCT
    for frames in range(0, 4 * rows):
        edges = model.block_edges(frames)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == frames
        if frames >= rows:
            assert sizes.min() >= rows and sizes.max() < 2 * rows
        else:
            assert edges == [0, frames]


def test_blocked_scores_are_the_whole_utterance_product(model, features):
    """For every length from 1 to 160 frames, ``score`` and a stream
    fed the same blocks give the rows of the first ``score``, bit for
    bit."""
    first = _AsFirstWritten(model, features)
    for frames in range(1, LONGEST + 1):
        utterance = features[:frames]
        want = first.score(utterance).tobytes()
        assert model.score(utterance).tobytes() == want, frames
        stream = model.stream()
        edges = model.block_edges(frames)
        blocks = [stream.push(utterance[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        assert np.concatenate(blocks).tobytes() == want, frames
