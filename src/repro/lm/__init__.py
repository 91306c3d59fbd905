"""Language-model substrate: corpora, back-off n-grams, LM WFSTs."""

from repro.lm.arpa import write_arpa
from repro.lm.corpus import (
    SENTENCE_END,
    SENTENCE_START,
    UNKNOWN,
    CorpusStats,
    ReferenceGrammar,
    corpus_stats,
    make_vocabulary,
)
from repro.lm.graph import BACKOFF_SYMBOL, LmGraph, build_lm_graph
from repro.lm.kneser_ney import KneserNeyModel, train_kneser_ney
from repro.lm.ngram import (
    BackoffNGramModel,
    NGramCounts,
    NGramEntry,
    train_ngram_model,
)

__all__ = [
    "SENTENCE_START",
    "SENTENCE_END",
    "UNKNOWN",
    "make_vocabulary",
    "ReferenceGrammar",
    "CorpusStats",
    "corpus_stats",
    "NGramCounts",
    "NGramEntry",
    "BackoffNGramModel",
    "train_ngram_model",
    "KneserNeyModel",
    "train_kneser_ney",
    "LmGraph",
    "build_lm_graph",
    "BACKOFF_SYMBOL",
    "write_arpa",
]
