"""Scorer training and dataset-size accounting (Figure 2).

Builds the acoustic front-end each task's preset calls for — GMM, DNN
or RNN — by actually training it on synthesized utterances from the
task's own corpus, then accounts dataset sizes per component the way
Figure 2 does: acoustic-model parameters versus the WFST(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.am.dnn import MlpAcousticModel
from repro.am.gmm import GmmAcousticModel
from repro.am.rnn import RnnAcousticModel
from repro.am.scorer import AcousticScorer, ScorerKind
from repro.asr.task import AsrTask


def build_scorer(
    task: AsrTask,
    kind: ScorerKind | None = None,
    training_utterances: int = 40,
    hidden: int = 192,
    oracle_gmm: bool = False,
) -> AcousticScorer:
    """Train the task's acoustic scorer on its own synthetic speech.

    Args:
        task: The ASR task (provides lexicon, emissions, synthesizer).
        kind: Override the preset's scorer kind.
        training_utterances: Synthesized training set size.
        hidden: Hidden width for the DNN/RNN scorers.
        oracle_gmm: Use the generator's parameters directly instead of
            fitting (fast path for tests).
    """
    kind = kind or task.config.scorer_kind
    if kind is ScorerKind.GMM and oracle_gmm:
        return GmmAcousticModel.from_emissions(
            task.emissions, num_mixtures=1, noise_scale=task.config.noise_scale
        )

    sentences = [
        task.grammar.sample_sentence(max_len=8) for _ in range(training_utterances)
    ]
    # Lexicon coverage: real training corpora attest every word, so every
    # usable senone has frames (and a sane prior) in training.
    vocab = task.grammar.vocabulary
    sentences.extend(vocab[i : i + 5] for i in range(0, len(vocab), 5))
    utterances = task.synthesizer.synthesize_batch(sentences)
    num_senones = task.num_senones

    if kind is ScorerKind.GMM:
        features = np.concatenate([u.features for u in utterances])
        alignment = np.concatenate([np.asarray(u.alignment) for u in utterances])
        return GmmAcousticModel.fit(features, alignment, num_senones, num_mixtures=2)
    if kind is ScorerKind.DNN:
        features = np.concatenate([u.features for u in utterances])
        alignment = np.concatenate([np.asarray(u.alignment) for u in utterances])
        return MlpAcousticModel.fit(
            features, alignment, num_senones, hidden=hidden
        )
    if kind is ScorerKind.RNN:
        return RnnAcousticModel.fit(
            [u.features for u in utterances],
            [np.asarray(u.alignment) for u in utterances],
            num_senones,
            hidden=hidden,
        )
    raise ValueError(f"unknown scorer kind: {kind}")


@dataclass(frozen=True)
class ComponentSizes:
    """Figure 2's bars for one decoder: scorer vs WFST bytes."""

    task_name: str
    scorer_kind: str
    scorer_bytes: int
    composed_wfst_bytes: int
    onthefly_wfst_bytes: int

    @property
    def total_composed_bytes(self) -> int:
        return self.scorer_bytes + self.composed_wfst_bytes

    @property
    def wfst_share(self) -> float:
        """Fraction of the (composed) dataset that is WFST (paper: 87-97%)."""
        return self.composed_wfst_bytes / self.total_composed_bytes

    @property
    def total_onthefly_bytes(self) -> int:
        return self.scorer_bytes + self.onthefly_wfst_bytes


def measure_component_sizes(
    task: AsrTask, scorer: AcousticScorer
) -> ComponentSizes:
    from repro.compress.sizing import measure_dataset_sizing

    sizing = measure_dataset_sizing(task)
    return ComponentSizes(
        task_name=task.name,
        scorer_kind=scorer.kind.value,
        scorer_bytes=scorer.size_bytes,
        composed_wfst_bytes=sizing.composed_bytes,
        onthefly_wfst_bytes=sizing.onthefly_comp_bytes,
    )
