"""ARPA text format for back-off n-gram models.

The interchange format Kaldi/EESEN language models are distributed in;
``examples/language_model_workbench.py`` exports its models with it.

ARPA stores base-10 logs; the in-memory model uses natural logs.
"""

from __future__ import annotations

import math
from typing import TextIO

from repro.lm.ngram import BackoffNGramModel

_LN10 = math.log(10.0)


def write_arpa(model: BackoffNGramModel, stream: TextIO) -> None:
    """Serialize ``model`` in ARPA format."""
    stream.write("\\data\\\n")
    entries_by_order = [model.entries(k) for k in range(model.order)]
    for k, entries in enumerate(entries_by_order):
        stream.write(f"ngram {k + 1}={len(entries)}\n")
    for k, entries in enumerate(entries_by_order):
        stream.write(f"\n\\{k + 1}-grams:\n")
        has_children = (
            set(model.explicit_contexts(k + 1)) if k + 1 < model.order else set()
        )
        for entry in sorted(entries, key=lambda e: e.context + (e.word,)):
            gram = entry.context + (entry.word,)
            log10 = entry.log_prob / _LN10
            line = f"{log10:.7f}\t{' '.join(gram)}"
            if gram in has_children:
                backoff = model.backoff_log_weight(gram) / _LN10
                line += f"\t{backoff:.7f}"
            stream.write(line + "\n")
    stream.write("\n\\end\\\n")
