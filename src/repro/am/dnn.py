"""DNN (MLP) acoustic model.

A hybrid DNN-HMM front-end: the network produces senone posteriors,
which are converted to scaled likelihoods by dividing out the senone
prior (the standard hybrid recipe).  Training uses the extreme-learning
-machine construction — a fixed random hidden expansion followed by a
ridge-regression read-out fitted to one-hot senone targets — which is a
genuine closed-form training procedure that needs no autodiff stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.am.readout import check_alignment, targets_product
from repro.am.scorer import ScorerKind

_POSTERIOR_FLOOR = 1e-10
#: Scaled-likelihood assigned to senones never seen in training (e.g.
#: phones no vocabulary word uses): effectively impossible, but finite.
UNSEEN_SENONE_SCORE = -1e4


def _smoothed_priors(alignment: np.ndarray, num_senones: int) -> np.ndarray:
    """Senone priors floored at half the rarest *seen* senone's prior.

    An absolute floor would hand unseen senones enormous likelihood
    boosts under the hybrid ``posterior / prior`` scaling; tying the
    floor to the rarest observed class keeps the scaling sane.
    """
    counts = np.bincount(alignment, minlength=num_senones).astype(float)
    priors = counts / counts.sum()
    seen = priors[priors > 0]
    floor = 0.5 * seen.min() if len(seen) else 1.0 / num_senones
    priors = np.maximum(priors, floor)
    return priors / priors.sum()


@dataclass
class MlpAcousticModel:
    """One-hidden-layer MLP senone classifier."""

    w_in: np.ndarray  # (dim, hidden)
    b_in: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden, senones)
    log_priors: np.ndarray  # (senones,)
    seen_mask: np.ndarray | None = None  # (senones,) bool
    #: Exponent on the prior in the hybrid scaling (Kaldi's
    #: standard recipe divides by the full prior).  Empirically the
    #: best decoding configuration here too.
    prior_scale: float = 1.0
    kind: ScorerKind = ScorerKind.DNN

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        alignment: np.ndarray,
        num_senones: int,
        hidden: int = 256,
        ridge: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> "MlpAcousticModel":
        """Closed-form training on aligned frames."""
        alignment = np.asarray(alignment)
        check_alignment(alignment, len(features), num_senones, "training set")
        rng = rng or np.random.default_rng(0)
        dim = features.shape[1]
        w_in = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden))
        b_in = rng.normal(0.0, 0.1, size=hidden)
        # tanh(features @ w_in + b_in), computed in the matmul's own
        # buffer: the same ufuncs on the same values, without two more
        # (frames, hidden) temporaries.
        hidden_acts = features @ w_in
        hidden_acts += b_in
        np.tanh(hidden_acts, out=hidden_acts)
        # Before the gram, whose temporaries would otherwise stack on
        # the targets buffer at the fit's memory peak.
        rhs = targets_product(hidden_acts, alignment, num_senones)
        gram = hidden_acts.T @ hidden_acts + ridge * np.eye(hidden)
        w_out = np.linalg.solve(gram, rhs)

        priors = _smoothed_priors(alignment, num_senones)
        seen = np.bincount(alignment, minlength=num_senones) > 0
        return cls(
            w_in=w_in,
            b_in=b_in,
            w_out=w_out,
            log_priors=np.log(priors),
            seen_mask=seen,
        )

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
            self.w_in.size + self.b_in.size + self.w_out.size + self.log_priors.size
        )
        return params * 4

    @property
    def flops_per_frame(self) -> float:
        return float(2 * (self.dim * self.hidden + self.hidden * self.num_senones))

    def posteriors(self, features: np.ndarray) -> np.ndarray:
        """Senone posteriors per frame.

        The ridge read-out was fitted to one-hot targets, so its raw
        outputs are least-squares estimates of ``P(senone | frame)``
        already; clip-and-normalize preserves their sharpness (a softmax
        over [0, 1] outputs would flatten them to near-uniform).
        """
        hidden_acts = np.tanh(features @ self.w_in + self.b_in)
        raw = np.maximum(hidden_acts @ self.w_out, 0.0)
        norm = raw.sum(axis=1, keepdims=True)
        flat = norm[:, 0] <= 0
        if np.any(flat):
            raw[flat] = 1.0
            norm = raw.sum(axis=1, keepdims=True)
        return raw / norm

    def score(self, features: np.ndarray) -> np.ndarray:
        """Scaled log-likelihoods: log posterior - log prior.

        Senones with no training observations (a hybrid system has no
        output unit for them) are pinned to an impossible score rather
        than receiving a spurious rare-prior boost.
        """
        posteriors = np.maximum(self.posteriors(features), _POSTERIOR_FLOOR)
        scores = np.log(posteriors) - self.prior_scale * self.log_priors[None, :]
        if self.seen_mask is not None:
            scores[:, ~self.seen_mask] = UNSEEN_SENONE_SCORE
        return scores
