"""RNN acoustic model (EESEN-style front-end).

An echo-state recurrent network: a fixed random recurrent reservoir
(spectral radius < 1 for stability) whose state summarizes acoustic
context, with a ridge-regression read-out to senone posteriors.  This
gives the decoder a genuinely *sequence-aware* scorer — frames are
scored in temporal context, like the LSTM in EESEN — while remaining
trainable in closed form.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.am.readout import check_alignments, targets_product
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
        self, features: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Reservoir state per frame, written into ``out`` when given.

        The input projections of all frames are one *stacked* gemv —
        ``(T, 1, dim) @ (dim, hidden)`` makes the same BLAS call per
        frame as ``x @ w_in`` does, so it is bit-identical to projecting
        frame by frame, which one ``(T, dim)`` GEMM is not — and it is
        written straight into the state rows, so a run allocates no
        ``(T, hidden)`` temporary (``fit`` runs several at once).  The
        recurrence then adds ``h @ w_rec``, from one scratch vector, to
        each frame's row and takes the ``tanh`` in place.
        """
        features = np.asarray(features)
        hidden = self.w_in.shape[1]
        states = np.empty((len(features), hidden)) if out is None else out
        if len(features) == 0:
            return states
        np.matmul(features[:, None, :], self.w_in, out=states[:, None, :])
        w_rec = self.w_rec
        h = np.zeros(hidden)
        recurrent = np.empty(hidden)
        for t in range(len(features)):
            row = states[t]
            np.matmul(h, w_rec, out=recurrent)
            np.add(row, recurrent, out=row)
            np.tanh(row, out=row)
            h = row
        return states

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
