"""RNN acoustic model (EESEN-style front-end).

An echo-state recurrent network: a fixed random recurrent reservoir
(spectral radius < 1 for stability) whose state summarizes acoustic
context, with a ridge-regression read-out to senone posteriors.  This
gives the decoder a genuinely *sequence-aware* scorer — frames are
scored in temporal context, like the LSTM in EESEN — while remaining
trainable in closed form.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.am.readout import _SMALL_PRODUCT, check_alignments, targets_product
from repro.am.scorer import ScorerKind
from repro.cpus import visible_cpus

_POSTERIOR_FLOOR = 1e-10


@dataclass
class RnnAcousticModel:
    """Echo-state RNN senone classifier."""

    w_in: np.ndarray  # (dim, hidden)
    w_rec: np.ndarray  # (hidden, hidden)
    w_out: np.ndarray  # (hidden, senones)
    log_priors: np.ndarray  # (senones,)
    seen_mask: np.ndarray | None = None  # (senones,) bool
    #: Exponent on the prior in the hybrid scaling (Kaldi's
    #: standard recipe divides by the full prior).  Empirically the
    #: best decoding configuration here too.
    prior_scale: float = 1.0
    kind: ScorerKind = ScorerKind.RNN

    @classmethod
    def fit(
        cls,
        utterance_features: list[np.ndarray],
        utterance_alignments: list[np.ndarray],
        num_senones: int,
        hidden: int = 256,
        ridge: float = 1.0,
        spectral_radius: float = 0.9,
        rng: np.random.Generator | None = None,
    ) -> "RnnAcousticModel":
        """Closed-form training over whole utterances (state is sequential)."""
        if not utterance_features:
            raise ValueError("need at least one training utterance")
        utterance_alignments = [np.asarray(a) for a in utterance_alignments]
        check_alignments(utterance_features, utterance_alignments, num_senones)
        rng = rng or np.random.default_rng(0)
        dim = utterance_features[0].shape[1]
        w_in = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden))
        w_rec = rng.normal(0.0, 1.0, size=(hidden, hidden))
        eigs = np.abs(np.linalg.eigvals(w_rec))
        w_rec *= spectral_radius / eigs.max()

        model = cls(
            w_in=w_in,
            w_rec=w_rec,
            w_out=np.zeros((hidden, num_senones)),
            log_priors=np.zeros(num_senones),
        )
        # Every utterance's reservoir states land in their rows of one
        # matrix: no per-utterance copies beside their concatenation.
        # The runs are independent and spend their time in BLAS calls
        # that release the GIL, so they fan out over the CPUs this
        # process may use; each makes the same calls on the same inputs
        # either way, so the states are bit-identical to a sequential
        # loop's.
        h = np.empty((sum(len(f) for f in utterance_features), hidden))
        rows = []
        row = 0
        for features in utterance_features:
            rows.append(h[row : row + len(features)])
            row += len(features)
        with ThreadPoolExecutor(max(1, min(visible_cpus(), len(rows)))) as pool:
            # ``list`` re-raises a failed run's exception here.
            list(pool.map(model._run_reservoir, utterance_features, rows))
        alignment = np.concatenate(utterance_alignments)
        # Before the gram, whose temporaries would otherwise stack on
        # the targets buffer at the fit's memory peak.
        rhs = targets_product(h, alignment, num_senones)
        gram = h.T @ h + ridge * np.eye(hidden)
        model.w_out = np.linalg.solve(gram, rhs)

        from repro.am.dnn import _smoothed_priors

        model.log_priors = np.log(_smoothed_priors(alignment, num_senones))
        model.seen_mask = np.bincount(alignment, minlength=num_senones) > 0
        return model

    def _run_reservoir(
        self,
        features: np.ndarray,
        out: np.ndarray | None = None,
        h: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reservoir state per frame, written into ``out`` when given,
        starting from state ``h`` (zeros when ``None``).

        The input projections of all frames are one *stacked* gemv —
        ``(T, 1, dim) @ (dim, hidden)`` makes the same BLAS call per
        frame as ``x @ w_in`` does, so it is bit-identical to projecting
        frame by frame, which one ``(T, dim)`` GEMM is not — and it is
        written straight into the state rows, so a run allocates no
        ``(T, hidden)`` temporary (``fit`` runs several at once).  The
        recurrence then adds ``h @ w_rec``, from one scratch vector, to
        each frame's row and takes the ``tanh`` in place.  Every frame
        makes the same calls on the same values however the frames are
        split into runs, as long as each run starts from the last state
        of the one before.
        """
        features = np.asarray(features)
        hidden = self.w_in.shape[1]
        states = np.empty((len(features), hidden)) if out is None else out
        if len(features) == 0:
            return states
        np.matmul(features[:, None, :], self.w_in, out=states[:, None, :])
        w_rec = self.w_rec
        h = np.zeros(hidden) if h is None else h
        recurrent = np.empty(hidden)
        for t in range(len(features)):
            row = states[t]
            np.matmul(h, w_rec, out=recurrent)
            np.add(row, recurrent, out=row)
            np.tanh(row, out=row)
            h = row
        return states

    def stream(self) -> "RnnScoreStream":
        """A scorer for one utterance fed a block of rows at a time,
        carrying the reservoir state from each block to the next."""
        return RnnScoreStream(self)

    def block_edges(self, frames: int) -> list[int]:
        """Row edges of the blocks :meth:`score` feeds its stream.

        Each block is the fewest rows whose read-out product (``rows *
        hidden * senones`` multiply-adds) exceeds
        :data:`~repro.am.readout._SMALL_PRODUCT`, and a shorter tail
        joins the block before it.  Every block's product then takes
        OpenBLAS's blocked kernel, as the whole utterance's product
        does, and each row's scores are bit-identical to that product's
        (a block under the bound would take the small-matrix kernel,
        whose sums differ).  An utterance shorter than one block is one
        block, as it always was.
        """
        rows = _SMALL_PRODUCT // (self.hidden * self.num_senones) + 1
        edges = list(range(0, frames - rows + 1, rows)) or [0]
        return edges + [frames]

    def score_blocks(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """:meth:`score`'s rows, one block (:meth:`block_edges`) at a
        time, from one stream."""
        features = np.asarray(features)
        stream = self.stream()
        edges = self.block_edges(len(features))
        for lo, hi in zip(edges, edges[1:]):
            yield stream.push(features[lo:hi])

    @property
    def num_senones(self) -> int:
        return self.w_out.shape[1]

    @property
    def hidden(self) -> int:
        return self.w_in.shape[1]

    @property
    def dim(self) -> int:
        return self.w_in.shape[0]

    @property
    def size_bytes(self) -> int:
        params = (
            self.w_in.size + self.w_rec.size + self.w_out.size + self.log_priors.size
        )
        return params * 4

    @property
    def flops_per_frame(self) -> float:
        return float(
            2
            * (
                self.dim * self.hidden
                + self.hidden * self.hidden
                + self.hidden * self.num_senones
            )
        )

    def _scores(self, states: np.ndarray) -> np.ndarray:
        """Scaled log-likelihoods of reservoir states, row by row.

        The read-out posteriors are least-squares estimates,
        clip-normalized per row.
        """
        raw = np.maximum(states @ self.w_out, 0.0)
        norm = raw.sum(axis=1, keepdims=True)
        flat = norm[:, 0] <= 0
        if np.any(flat):
            raw[flat] = 1.0
            norm = raw.sum(axis=1, keepdims=True)
        posteriors = np.maximum(raw / norm, _POSTERIOR_FLOOR)
        scores = np.log(posteriors) - self.prior_scale * self.log_priors[None, :]
        if self.seen_mask is not None:
            from repro.am.dnn import UNSEEN_SENONE_SCORE

            scores[:, ~self.seen_mask] = UNSEEN_SENONE_SCORE
        return scores

    def score(self, features: np.ndarray) -> np.ndarray:
        """Scaled log-likelihoods over the whole utterance: its stream
        fed :meth:`block_edges`' blocks."""
        return np.concatenate(list(self.score_blocks(features)))


class RnnScoreStream:
    """One utterance's scores, a block of feature rows at a time.

    The reservoir state carries from each :meth:`push` to the next, so
    the rows equal those of scoring the whole utterance at once up to
    the read-out product, which each block takes on its own: blocks cut
    at :meth:`RnnAcousticModel.block_edges` reproduce
    :meth:`RnnAcousticModel.score` bit for bit, and shorter blocks
    agree to within the rounding of their read-out sums.
    """

    def __init__(self, model: RnnAcousticModel) -> None:
        self.model = model
        self._h: np.ndarray | None = None  # last state; zeros before any

    def push(self, features: np.ndarray) -> np.ndarray:
        """Scores of the next ``len(features)`` frames."""
        states = self.model._run_reservoir(features, h=self._h)
        if len(states):
            self._h = states[-1].copy()
        return self.model._scores(states)
