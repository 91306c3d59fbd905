"""Synthetic speech features.

The paper decodes real audio; offline we cannot, so we synthesize the
one artifact the Viterbi search actually consumes upstream of the
acoustic scorer: per-frame feature vectors.  Each senone owns a Gaussian
emission distribution; an utterance is rendered by expanding its word
sequence through the lexicon and HMM topology, sampling a duration per
HMM state, and emitting noisy draws from each senone's Gaussian.

The ``noise_scale`` knob controls how confusable senones are, which is
what drives word error rate in the evaluation (Table 6): low noise means
near-perfect recognition, high noise forces the search to rely on the
language model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.am.hmm import HmmTopology
from repro.am.lexicon import Lexicon
from repro.am.phones import PhoneInventory


@dataclass
class SenoneEmissionModel:
    """Ground-truth Gaussian emission parameters per senone."""

    means: np.ndarray  # (num_senones, dim)
    variances: np.ndarray  # (num_senones, dim)

    @classmethod
    def random(
        cls,
        num_senones: int,
        dim: int,
        rng: np.random.Generator,
        separation: float = 2.0,
    ) -> "SenoneEmissionModel":
        """Senone means drawn apart by ``separation`` on average."""
        means = rng.normal(0.0, separation, size=(num_senones, dim))
        variances = np.full((num_senones, dim), 1.0)
        return cls(means=means, variances=variances)

    @property
    def num_senones(self) -> int:
        return self.means.shape[0]


@dataclass
class Utterance:
    """One synthetic test utterance."""

    words: list[str]
    features: np.ndarray  # (frames, dim)
    alignment: list[int]  # reference senone per frame

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def duration_seconds(self) -> float:
        """Wall-clock speech length at the standard 10 ms frame rate."""
        return self.num_frames * 0.01


@dataclass
class FeatureSynthesizer:
    """Renders word sequences into feature matrices."""

    lexicon: Lexicon
    topology: HmmTopology
    emissions: SenoneEmissionModel
    rng: np.random.Generator = field(repr=False, default_factory=np.random.default_rng)
    noise_scale: float = 1.0
    silence_probability: float = 0.3

    def synthesize(self, words: list[str]) -> Utterance:
        """Render ``words`` into features plus a reference alignment."""
        phones = self.lexicon.phones
        senones: list[int] = []
        if self.rng.random() < self.silence_probability:
            senones.extend(self._hold(self.topology.senone_sequence([phones.silence_id])))
        for word in words:
            pron = self._pick_pronunciation(word)
            phone_ids = [phones.id_of(p) for p in pron]
            senones.extend(self._hold(self.topology.senone_sequence(phone_ids)))
            if self.rng.random() < self.silence_probability * 0.5:
                senones.extend(
                    self._hold(self.topology.senone_sequence([phones.silence_id]))
                )
        means = self.emissions.means[senones]
        stds = np.sqrt(self.emissions.variances[senones]) * self.noise_scale
        noise = self.rng.normal(size=means.shape)
        features = means + stds * noise
        return Utterance(words=list(words), features=features, alignment=senones)

    def synthesize_batch(self, sentences: list[list[str]]) -> list[Utterance]:
        return [self.synthesize(words) for words in sentences]

    def _pick_pronunciation(self, word: str):
        variants = self.lexicon.pronunciations(word)
        if len(variants) == 1:
            return variants[0]
        return variants[int(self.rng.integers(0, len(variants)))]

    def _hold(self, senones: list[int]) -> list[int]:
        """Repeat each senone for a geometric duration (HMM self-loops)."""
        held: list[int] = []
        stay = self.topology.self_loop_prob
        for senone in senones:
            duration = 1 + self.rng.geometric(1.0 - stay) - 1
            held.extend([senone] * max(1, int(duration)))
        return held


def make_emission_model(
    phones: PhoneInventory,
    topology: HmmTopology,
    rng: np.random.Generator,
    dim: int = 16,
    separation: float = 2.0,
) -> SenoneEmissionModel:
    return SenoneEmissionModel.random(
        topology.num_senones(phones), dim, rng, separation=separation
    )
