"""Tests for the ridge read-out's blocked targets product and the fits'
alignment checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.am import MlpAcousticModel, RnnAcousticModel
from repro.am import dnn, readout, rnn
from repro.am.readout import (
    TARGET_BLOCK_SENONES,
    target_block_edges,
    targets_product,
)

W = TARGET_BLOCK_SENONES


def dense_product(acts, alignment, num_senones):
    """The form the fits used to compute: the whole one-hot matrix."""
    targets = np.zeros((len(acts), num_senones))
    targets[np.arange(len(acts)), alignment] = 1.0
    return acts.T @ targets


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(3000, 6000),
    num_senones=st.integers(2 * W, 192),
    extra_hidden=st.integers(1, 96),
    stride=st.integers(1, 3),
    quarters=st.integers(1, 4),
)
@example(0, 6000, 99, 93, 1, 4)  # merged tail: 32 + 67
@example(1, 5000, 120, 40, 1, 4)  # merged tail: 32 + 32 + 56
@example(2, 5000, 128, 32, 1, 4)  # a multiple of the block
@example(3, 5000, 4 * W + 7, 20, 2, 2)  # odd ids and the last blocks empty
@example(4, 3000, 2 * W - 1, 1, 1, 4)  # fewer than two blocks: dense
@example(5, 3000, 30, 34, 1, 4)
# A 480 x 65 x 32 block is under OpenBLAS's small-matrix threshold, where
# its sums differ from the dense product's (they did for this draw): the
# helper takes the dense product there.
@example(5, 480, 64, 1, 1, 4)
def test_targets_product_is_the_dense_product(
    seed, frames, num_senones, extra_hidden, stride, quarters
):
    """Bit-identical to the dense product on shapes like a fit's: up to
    192 senones and a hidden width above the senone count, where the
    measurement in DESIGN.md holds at any BLAS thread count.  Only every
    ``stride``-th id of the first ``quarters`` quarters of the senones
    has frames.  A blocked product's traced peak stays below one dense
    targets matrix."""
    # Width 1 takes another BLAS kernel and is not bit-identical to the
    # dense product; every width from 8 up was.
    assert W >= 8
    edges = target_block_edges(num_senones)
    widths = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == num_senones
    assert len(widths) == max(1, num_senones // W)
    if len(widths) > 1:  # the tail merged into the last block
        assert all(w == W for w in widths[:-1]) and W <= widths[-1] < 2 * W

    rng = np.random.default_rng(seed)
    hidden = num_senones + extra_hidden
    acts = np.tanh(rng.normal(size=(frames, hidden)))
    used = np.arange(0, max(1, num_senones * quarters // 4), stride)
    alignment = rng.choice(used, size=frames)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = targets_product(acts, alignment, num_senones)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = dense_product(acts, alignment, num_senones)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if len(widths) > 1 and frames >= 3000:
        assert peak < frames * num_senones * 8


def test_fits_through_the_blocked_path_keep_their_weights(monkeypatch):
    """Both fits, on a training set large enough for the blocked loop
    (two or more blocks, each product above the small-matrix bound),
    fit the bytes they fit with the dense one-hot targets."""
    num, hidden, lengths = 2 * W + 6, 96, (400, 350, 450)
    assert len(target_block_edges(num)) > 2
    assert hidden * W * sum(lengths) > readout._SMALL_PRODUCT
    rng = np.random.default_rng(7)
    features = [rng.normal(size=(n, 13)) for n in lengths]
    alignments = [rng.integers(0, num, size=n) for n in lengths]

    def fits():
        return (
            MlpAcousticModel.fit(
                np.concatenate(features), np.concatenate(alignments), num,
                hidden=hidden, rng=np.random.default_rng(1),
            ),
            RnnAcousticModel.fit(
                features, alignments, num, hidden=hidden,
                rng=np.random.default_rng(2),
            ),
        )

    blocked = fits()
    monkeypatch.setattr(dnn, "targets_product", dense_product)
    monkeypatch.setattr(rnn, "targets_product", dense_product)
    for got, want in zip(blocked, fits()):
        assert got.w_out.tobytes() == want.w_out.tobytes()


class _NoDraws:
    """An ``rng`` that fails the test if a fit starts drawing weights."""

    def normal(self, *args, **kwargs):
        raise AssertionError("fit did work before checking its alignment")


def test_fits_check_alignments_first():
    """Both fits reject bad training data up front, by name, instead of
    misaligning targets or failing late inside numpy."""
    rng = np.random.default_rng(0)
    num = 12

    def rnn_fit(features, alignments):
        RnnAcousticModel.fit(features, alignments, num, hidden=8, rng=_NoDraws())

    def mlp_fit(features, alignment):
        MlpAcousticModel.fit(features, alignment, num, hidden=8, rng=_NoDraws())

    with pytest.raises(ValueError, match="at least one training utterance"):
        rnn_fit([], [])
    features = [rng.normal(size=(n, 4)) for n in (50, 40)]
    with pytest.raises(ValueError, match="2 feature matrices but 1"):
        rnn_fit(features, [np.zeros(50, int)])
    # 51 + 39 alignment frames for 50 + 40 feature frames: the totals
    # agree, so the concatenated targets used to shift by one frame
    # after frame 50 without an error.
    with pytest.raises(ValueError, match="utterance 0: alignment"):
        rnn_fit(features, [rng.integers(0, num, size=n) for n in (51, 39)])
    with pytest.raises(ValueError, match="50 feature frames"):
        mlp_fit(features[0], np.zeros(51, int))
    # -1 used to fail at ``np.bincount`` after the reservoir and the
    # gram had run, an id >= num_senones as a bare IndexError.
    for bad in (-1, num):
        alignments = [np.zeros(50, int), np.zeros(40, int)]
        alignments[1][3] = bad
        with pytest.raises(ValueError, match=f"utterance 1: senone id {bad} "):
            rnn_fit(features, alignments)
        with pytest.raises(ValueError, match=f"senone id {bad} "):
            mlp_fit(features[1], alignments[1])

    good = [rng.integers(0, num, size=n) for n in (50, 40)]
    rnn = RnnAcousticModel.fit(features, good, num, hidden=8)
    mlp = MlpAcousticModel.fit(
        np.concatenate(features), np.concatenate(good), num, hidden=8
    )
    assert rnn.w_out.shape == mlp.w_out.shape == (8, num)
