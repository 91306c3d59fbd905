"""Synthetic text corpora for language-model training.

The paper trains its LMs on the TED-LIUM / Librispeech / Voxforge text
corpora, which are not redistributable here.  We substitute a seeded
*reference grammar*: a random first-order Markov chain over a generated
vocabulary.  Sentences sampled from it exhibit the statistical structure
an n-gram LM exploits — a Zipf-like unigram distribution, sparse
bigram/trigram support (so back-off arcs actually fire), and consistent
test/train mismatch when noise is injected.

Word shapes are generated from a small consonant/vowel phonotactics so
the same vocabulary feeds the pronunciation lexicon (``repro.am``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

#: Sentence boundary pseudo-words, following ARPA conventions.
SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"


def make_vocabulary(num_words: int, rng: np.random.Generator) -> list[str]:
    """Generate ``num_words`` distinct pronounceable word strings."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < num_words:
        syllables = int(rng.integers(1, 4))
        parts = []
        for _ in range(syllables):
            c = _CONSONANTS[rng.integers(0, len(_CONSONANTS))]
            v = _VOWELS[rng.integers(0, len(_VOWELS))]
            parts.append(c + v)
            if rng.random() < 0.3:
                parts.append(_CONSONANTS[rng.integers(0, len(_CONSONANTS))])
        word = "".join(parts)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass
class ReferenceGrammar:
    """A random Markov chain used as the ground-truth sentence source.

    Attributes:
        vocabulary: The word list (no sentence-boundary tokens).
        transitions: Row-stochastic (V+1, V+1) matrix; row/column V is
            the sentence boundary, so ``transitions[V]`` is the
            sentence-initial distribution and column V holds stopping
            probabilities.
    """

    vocabulary: list[str]
    transitions: np.ndarray
    rng: np.random.Generator = field(repr=False, default_factory=np.random.default_rng)
    #: (``transitions`` as last seen, its rows' normalized running sums).
    _cdf: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def random(
        cls,
        vocabulary: list[str],
        rng: np.random.Generator,
        branching: int = 8,
        stop_probability: float = 0.12,
    ) -> "ReferenceGrammar":
        """Build a sparse random grammar.

        Each word can be followed by roughly ``branching`` others (with
        Zipf-ish preference), which keeps bigram support sparse — the
        property that makes LM back-off arcs matter.
        """
        v = len(vocabulary)
        transitions = np.zeros((v + 1, v + 1))
        # Zipf-like global popularity, so some words dominate.
        popularity = 1.0 / np.arange(1, v + 1)
        popularity /= popularity.sum()
        for row in range(v + 1):
            successors = rng.choice(
                v, size=min(branching, v), replace=False, p=popularity
            )
            weights = rng.dirichlet(np.ones(len(successors)) * 0.5)
            transitions[row, successors] = weights * (1.0 - stop_probability)
            transitions[row, v] = stop_probability
            transitions[row] /= transitions[row].sum()
        # A sentence cannot stop before producing one word.
        transitions[v, v] = 0.0
        transitions[v] /= transitions[v].sum()
        return cls(vocabulary=vocabulary, transitions=transitions, rng=rng)

    def _successor_cdf(self) -> np.ndarray:
        """Per state, the normalized running sums of its transition row,
        recomputed when ``transitions`` is replaced."""
        cached = self._cdf
        if cached is None or cached[0] is not self.transitions:
            cdf = np.cumsum(self.transitions, axis=1)
            cdf /= cdf[:, -1:]
            cached = self._cdf = (self.transitions, cdf)
        return cached[1]

    def sample_sentence(self, max_len: int = 30) -> list[str]:
        """Draw one sentence (a list of words, no boundary tokens)."""
        v = len(self.vocabulary)
        state = v  # boundary
        words: list[str] = []
        # ``rng.choice(v + 1, p=transitions[state])`` draw for draw (one
        # uniform against the row's running sums), minus its per-call
        # validation and cumsum of the row.
        cdf = self._successor_cdf()
        random = self.rng.random
        while len(words) < max_len:
            state = int(cdf[state].searchsorted(random(), side="right"))
            if state == v:
                break
            words.append(self.vocabulary[state])
        return words if words else [self.vocabulary[int(self.rng.integers(0, v))]]

    def sample_corpus(self, num_sentences: int) -> list[list[str]]:
        corpus = [self.sample_sentence() for _ in range(num_sentences)]
        return self._ensure_coverage(corpus)

    def _ensure_coverage(self, corpus: list[list[str]]) -> list[list[str]]:
        """Append short sentences so every vocabulary word is attested.

        Guarantees the unigram floor the paper relies on ("all the
        unigram likelihoods are maintained", Section 3.3): any word can
        be matched at LM state 0.
        """
        seen = {w for sentence in corpus for w in sentence}
        missing = [w for w in self.vocabulary if w not in seen]
        for i in range(0, len(missing), 5):
            corpus.append(missing[i : i + 5])
        return corpus


@dataclass(frozen=True)
class CorpusStats:
    num_sentences: int
    num_tokens: int
    vocabulary_size: int

    @property
    def avg_sentence_len(self) -> float:
        if self.num_sentences == 0:
            return 0.0
        return self.num_tokens / self.num_sentences


def corpus_stats(corpus: list[list[str]]) -> CorpusStats:
    tokens = sum(len(s) for s in corpus)
    vocab = {w for s in corpus for w in s}
    return CorpusStats(len(corpus), tokens, len(vocab))
