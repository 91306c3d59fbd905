"""GMM acoustic model.

Diagonal-covariance Gaussian mixture per senone, the classical Kaldi
front-end.  The model can be instantiated directly from the ground-truth
emission model (oracle parameters) or fitted by maximum likelihood from
aligned training features, which is how tests confirm the estimator
recovers the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.am.features import SenoneEmissionModel
from repro.am.scorer import ScorerKind

_LOG_2PI = math.log(2.0 * math.pi)
_VAR_FLOOR = 1e-3
#: Frames scored per block.  A block runs in one (block, senones,
#: mixtures, dim) float64 buffer, reused in place; a whole utterance's
#: would set a decoding process's peak RSS (KALDI_TEDLIUM: 114.5 against
#: 85 MiB at 32 frames).  On ``offline_wide`` (KALDI_TEDLIUM: 120
#: senones x 2 mixtures x 16 dims; 2 vCPUs, one BLAS thread): scorer
#: CPU per frame, median of 15 interleaved passes over 48 utterances,
#: and the bench's ``peak_rss_mb``, median of seeds 11-13:
#:
#:   block   buffer     us/frame   peak_rss_mb
#:       8   0.23 MiB   32.9       56.04
#:      16   0.47 MiB   32.6       56.33
#:      32   0.94 MiB   33.2       56.93
#:
#: The speeds are within noise of each other; 8 has the lowest peak.
#: The block size is free to tune because scoring is pure per-frame
#: broadcasting (no cross-frame state, no shape-dependent BLAS
#: reduction): every block size yields bit-identical scores (blocks of
#: 8...128 measured equal).
_SCORE_BLOCK = 8


@dataclass
class GmmAcousticModel:
    """Per-senone diagonal GMM.

    Attributes:
        means: (senones, mixtures, dim) component means.
        variances: (senones, mixtures, dim) diagonal covariances.
        log_weights: (senones, mixtures) mixture log-weights.
    """

    means: np.ndarray
    variances: np.ndarray
    log_weights: np.ndarray
    kind: ScorerKind = ScorerKind.GMM

    @classmethod
    def from_emissions(
        cls,
        emissions: SenoneEmissionModel,
        num_mixtures: int = 2,
        rng: np.random.Generator | None = None,
        jitter: float = 0.1,
        noise_scale: float = 1.0,
    ) -> "GmmAcousticModel":
        """Oracle model: components jittered around the true means.

        ``noise_scale`` must match the feature synthesizer's: observed
        features have variance ``noise_scale**2 * emission_variance``.
        """
        rng = rng or np.random.default_rng(0)
        s, d = emissions.means.shape
        means = np.repeat(emissions.means[:, None, :], num_mixtures, axis=1)
        means = means + rng.normal(0.0, jitter, size=means.shape)
        variances = np.repeat(
            emissions.variances[:, None, :] * noise_scale**2, num_mixtures, axis=1
        )
        log_weights = np.full((s, num_mixtures), -math.log(num_mixtures))
        return cls(means=means, variances=variances, log_weights=log_weights)

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        alignment: np.ndarray,
        num_senones: int,
        num_mixtures: int = 1,
    ) -> "GmmAcousticModel":
        """Maximum-likelihood fit from aligned frames (single pass).

        Senones with no observations fall back to the global statistics.
        Multi-mixture fitting duplicates the ML Gaussian with small
        offsets (sufficient for the synthetic unimodal emissions).
        """
        alignment = np.asarray(alignment)
        dim = features.shape[1]
        global_mean = features.mean(axis=0)
        global_var = np.maximum(features.var(axis=0), _VAR_FLOOR)
        means = np.tile(global_mean, (num_senones, 1))
        variances = np.tile(global_var, (num_senones, 1))
        for senone in range(num_senones):
            rows = features[alignment == senone]
            if len(rows) >= 2:
                means[senone] = rows.mean(axis=0)
                variances[senone] = np.maximum(rows.var(axis=0), _VAR_FLOOR)
            elif len(rows) == 1:
                means[senone] = rows[0]
        offsets = np.linspace(-0.05, 0.05, num_mixtures)[None, :, None]
        mix_means = means[:, None, :] + offsets
        mix_vars = np.repeat(variances[:, None, :], num_mixtures, axis=1)
        log_weights = np.full((num_senones, num_mixtures), -math.log(num_mixtures))
        return cls(means=mix_means, variances=mix_vars, log_weights=log_weights)

    @property
    def num_senones(self) -> int:
        return self.means.shape[0]

    @property
    def num_mixtures(self) -> int:
        return self.means.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]

    @property
    def size_bytes(self) -> int:
        """float32 deployment footprint (means + variances + weights)."""
        params = self.means.size + self.variances.size + self.log_weights.size
        return params * 4

    @property
    def flops_per_frame(self) -> float:
        # Per frame: for every senone/mixture/dim, a sub, square, scale, add.
        return float(4 * self.num_senones * self.num_mixtures * self.dim)

    def score(self, features: np.ndarray) -> np.ndarray:
        """Log-likelihood matrix, shape (frames, senones)."""
        t, d = features.shape
        if d != self.dim:
            raise ValueError(f"feature dim {d} != model dim {self.dim}")
        log_norm = -0.5 * (
            d * _LOG_2PI + np.sum(np.log(self.variances), axis=2)
        )
        scores = np.empty(
            (t, self.num_senones),
            dtype=np.result_type(features, self.means, self.log_weights),
        )
        # One (block, s, m, d) buffer per call: the difference, its
        # square and the quotient by the variances are computed in place,
        # the same ufuncs on the same values as the broadcast expression
        # ``diff * diff / variances``, so the scores are unchanged.
        buf = np.empty(
            (min(t, _SCORE_BLOCK),) + self.means.shape,
            dtype=np.result_type(features, self.means, self.variances),
        )
        for lo in range(0, t, _SCORE_BLOCK):
            block = features[lo : lo + _SCORE_BLOCK]
            quotient = buf[: block.shape[0]]
            np.subtract(block[:, None, None, :], self.means, out=quotient)
            np.multiply(quotient, quotient, out=quotient)
            np.divide(quotient, self.variances, out=quotient)
            # Reduced over d, then logsumexp over m.
            exponent = -0.5 * np.sum(quotient, axis=3)
            component = exponent + log_norm[None] + self.log_weights[None]
            peak = component.max(axis=2)
            scores[lo : lo + _SCORE_BLOCK] = peak + np.log(
                np.sum(np.exp(component - peak[:, :, None]), axis=2)
            )
        return scores
