"""ARPA export: the written text carries every probability and back-off."""

import io
import math

import numpy as np
import pytest

from repro.lm import (
    ReferenceGrammar,
    make_vocabulary,
    train_ngram_model,
    write_arpa,
)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(41)
    vocab = make_vocabulary(25, rng)
    grammar = ReferenceGrammar.random(vocab, rng, branching=4)
    corpus = grammar.sample_corpus(200)
    return train_ngram_model(corpus, vocab, order=3, cutoffs=(1, 1, 2))


def _sections(model):
    """(declared counts, one {gram: fields} per order) of the ARPA text."""
    buffer = io.StringIO()
    write_arpa(model, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "\\data\\" and lines[-1] == "\\end\\"
    declared = [int(l.split("=")[1]) for l in lines if l.startswith("ngram ")]
    sections: list[dict] = []
    for line in lines:
        if line.endswith("-grams:"):
            sections.append({})
        elif sections and line and line != "\\end\\":
            log10, gram, *backoff = line.split("\t")
            sections[-1][tuple(gram.split())] = [float(log10)] + [
                float(b) for b in backoff
            ]
    return declared, sections


class TestWriteArpa:
    def test_header_declares_every_order(self, trained):
        declared, sections = _sections(trained)
        assert declared == [trained.num_ngrams(k) for k in range(trained.order)]
        assert [len(s) for s in sections] == declared

    def test_probabilities_and_backoffs_written(self, trained):
        _, sections = _sections(trained)
        for k, section in enumerate(sections):
            parents = (
                set(trained.explicit_contexts(k + 1))
                if k + 1 < trained.order
                else set()
            )
            for entry in trained.entries(k):
                gram = entry.context + (entry.word,)
                fields = section[gram]
                assert fields[0] == pytest.approx(
                    entry.log_prob / math.log(10), abs=1e-6
                )
                if gram in parents:
                    assert fields[1] == pytest.approx(
                        trained.backoff_log_weight(gram) / math.log(10),
                        abs=1e-6,
                    )
                else:
                    assert len(fields) == 1
