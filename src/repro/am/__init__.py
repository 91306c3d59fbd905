"""Acoustic-model substrate: phones, lexicon, HMMs, AM WFST, scorers."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
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
