"""Acoustic-model substrate: phones, lexicon, HMMs, AM WFST, scorers."""

from repro.am.dnn import MlpAcousticModel
from repro.am.features import (
    FeatureSynthesizer,
    SenoneEmissionModel,
    Utterance,
    make_emission_model,
)
from repro.am.gmm import GmmAcousticModel
from repro.am.graph import AmGraph, build_am_graph
from repro.am.hmm import HmmTopology
from repro.am.lexicon import Lexicon, generate_lexicon
from repro.am.phones import SILENCE_PHONE, STANDARD_PHONES, PhoneInventory
from repro.am.rnn import RnnAcousticModel
from repro.am.scorer import (
    AcousticScorer,
    ScorerKind,
    check_score_matrix,
    frame_accuracy,
)

__all__ = [
    "PhoneInventory",
    "STANDARD_PHONES",
    "SILENCE_PHONE",
    "Lexicon",
    "generate_lexicon",
    "HmmTopology",
    "AmGraph",
    "build_am_graph",
    "SenoneEmissionModel",
    "FeatureSynthesizer",
    "Utterance",
    "make_emission_model",
    "GmmAcousticModel",
    "MlpAcousticModel",
    "RnnAcousticModel",
    "AcousticScorer",
    "ScorerKind",
    "frame_accuracy",
    "check_score_matrix",
]
