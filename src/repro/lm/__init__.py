"""Language-model substrate: corpora, back-off n-grams, LM WFSTs."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arpa": ("write_arpa",),
        "corpus": (
            "SENTENCE_END",
            "SENTENCE_START",
            "UNKNOWN",
            "CorpusStats",
            "ReferenceGrammar",
            "corpus_stats",
            "make_vocabulary",
        ),
        "graph": ("BACKOFF_SYMBOL", "LmGraph", "build_lm_graph"),
        "kneser_ney": ("KneserNeyModel", "train_kneser_ney"),
        "ngram": (
            "BackoffNGramModel",
            "NGramCounts",
            "NGramEntry",
            "train_ngram_model",
        ),
    },
)
