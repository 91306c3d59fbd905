"""The ridge read-out's training inputs, shared by the DNN and RNN fits.

Both closed-form fits solve ``(acts.T @ acts + ridge * I) w_out =
acts.T @ targets``, where ``targets`` is the one-hot ``(frames,
senones)`` matrix of the frame alignment.  Built whole, that matrix is
the largest set-up allocation after the activations themselves (17 MiB
beside ``EESEN_TEDLIUM``'s 74 MiB reservoir), yet each product column
reads only its own senone's column of it.  :func:`targets_product`
therefore builds it a block of senone columns at a time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Senone columns per block of :func:`targets_product`.  Read off the
#: width/time/peak table in DESIGN.md ("Set-up memory"): 32 reaches the
#: fits' peaks at 16 or 8 to about 1 MiB, for under half their extra
#: BLAS time.
TARGET_BLOCK_SENONES = 32

#: Products of at most this many multiply-adds (``hidden * width *
#: frames``) may take OpenBLAS's small-matrix kernel, whose sums are
#: not those of the blocked kernel the whole product takes; below it
#: the blocks would not be bit-identical to the dense product (and the
#: targets they would save are small anyway).
_SMALL_PRODUCT = 10**6


def check_alignment(
    alignment: np.ndarray, num_frames: int, num_senones: int, where: str
) -> None:
    """Raise ``ValueError`` unless ``alignment`` holds ``num_frames``
    senone ids in ``[0, num_senones)``; ``where`` names it."""
    if alignment.shape != (num_frames,):
        raise ValueError(
            f"{where}: alignment of shape {alignment.shape} for "
            f"{num_frames} feature frames"
        )
    if num_frames == 0:
        return
    for bad in (alignment.min(), alignment.max()):
        if not 0 <= bad < num_senones:
            raise ValueError(
                f"{where}: senone id {bad} outside [0, {num_senones})"
            )


def check_alignments(
    features: Sequence[np.ndarray],
    alignments: Sequence[np.ndarray],
    num_senones: int,
) -> None:
    """:func:`check_alignment` for each utterance, named by its index."""
    if len(features) != len(alignments):
        raise ValueError(
            f"{len(features)} feature matrices but {len(alignments)} "
            "alignments"
        )
    for index, (feats, alignment) in enumerate(zip(features, alignments)):
        check_alignment(alignment, len(feats), num_senones, f"utterance {index}")


def target_block_edges(num_senones: int) -> list[int]:
    """Senone-column edges of :func:`targets_product`'s blocks.

    Blocks are :data:`TARGET_BLOCK_SENONES` wide, the last one taking
    the remainder (so none is narrower); with fewer than two blocks'
    worth of senones the one block is all of them.
    """
    blocks = max(1, num_senones // TARGET_BLOCK_SENONES)
    return [b * TARGET_BLOCK_SENONES for b in range(blocks)] + [num_senones]


def targets_product(
    acts: np.ndarray, alignment: np.ndarray, num_senones: int
) -> np.ndarray:
    """``acts.T @ targets`` for the one-hot targets of ``alignment``.

    The targets are built one block of senone columns at a time
    (:func:`target_block_edges`) in one ``(frames, widest block)``
    buffer, instead of the whole ``(frames, senones)`` matrix.  A
    single block, or a product small enough for OpenBLAS's small-matrix
    kernel, takes one dense product.  Each output column is a sum over
    the frames that only its own target column enters, and OpenBLAS adds
    it in the same order in a block as in the dense product; so the
    result is bit-identical to the dense product's at the same BLAS
    thread count (measured on the fits' shapes, up to 192 senones and a
    hidden width above the senone count; DESIGN.md, "Set-up memory",
    gives the scope).  ``alignment`` must have passed
    :func:`check_alignment`: a block keeps only the ids in its range.
    """
    frames, hidden = acts.shape
    edges = target_block_edges(num_senones)
    small = hidden * TARGET_BLOCK_SENONES * frames <= _SMALL_PRODUCT
    if len(edges) == 2 or small:
        targets = np.zeros((frames, num_senones))
        targets[np.arange(frames), alignment] = 1.0
        return acts.T @ targets
    # One buffer as wide as the widest (last) block; each block is a
    # view of its leading columns, cleared again after its product.
    buffer = np.zeros((frames, edges[-1] - edges[-2]))
    out = np.empty((hidden, num_senones))
    for lo, hi in zip(edges, edges[1:]):
        rows = np.flatnonzero((alignment >= lo) & (alignment < hi))
        cols = alignment[rows] - lo
        block = buffer[:, : hi - lo]
        block[rows, cols] = 1.0
        out[:, lo:hi] = acts.T @ block
        block[rows, cols] = 0.0
    return out
