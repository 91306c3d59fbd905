"""Acoustic-model substrate: phones, lexicon, HMMs, AM WFST, scorers."""

from repro import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dnn": ("MlpAcousticModel",),
        "features": (
            "FeatureSynthesizer",
            "SenoneEmissionModel",
            "Utterance",
            "make_emission_model",
        ),
        "gmm": ("GmmAcousticModel",),
        "graph": ("AmGraph", "build_am_graph"),
        "hmm": ("HmmTopology",),
        "lexicon": ("Lexicon", "generate_lexicon"),
        "phones": ("SILENCE_PHONE", "STANDARD_PHONES", "PhoneInventory"),
        "rnn": ("RnnAcousticModel",),
        "scorer": (
            "AcousticScorer",
            "ScorerKind",
            "check_score_matrix",
            "frame_accuracy",
        ),
    },
)
