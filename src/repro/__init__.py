"""UNFOLD reproduction: memory-efficient ASR via on-the-fly WFST composition.

A pure-Python, repository-scale reproduction of *UNFOLD: A
Memory-Efficient Speech Recognizer Using On-The-Fly WFST Composition*
(Yazdani, Arnau, Gonzalez - MICRO-50, 2017).

Package map:

* :mod:`repro.wfst` - weighted finite-state transducer substrate;
* :mod:`repro.lm` - corpora, back-off n-gram models, LM WFSTs;
* :mod:`repro.am` - lexicon, HMMs, AM WFSTs, GMM/DNN/RNN scorers;
* :mod:`repro.core` - the paper's contribution: the on-the-fly
  composition Viterbi decoder, plus the fully-composed baseline;
* :mod:`repro.compress` - Section 3.4's compressed formats and the
  dataset sizing models;
* :mod:`repro.accel` - cycle-level simulators: UNFOLD, the MICRO-49
  baseline, the Tegra X1 GPU;
* :mod:`repro.asr` - end-to-end system assembly, tasks, WER;
* :mod:`repro.experiments` - one driver per evaluated table/figure;
* :mod:`repro.shm` - shared-memory recognizer segments;
* :mod:`repro.serve` - the streaming transcription service.

Every package resolves the names it exports on first use
(:func:`lazy_exports`): ``from repro.serve import TcpClient`` imports
the client and what it needs, not the server or the decoder.

Quickstart::

    from repro.asr import build_task, build_scorer, TINY
    from repro.core import OnTheFlyDecoder

    task = build_task(TINY)
    scorer = build_scorer(task, oracle_gmm=True)
    utterance = task.test_set(1)[0]
    decoder = OnTheFlyDecoder(task.am, task.lm)
    result = decoder.decode(scorer.score(utterance.features))
    print(utterance.words, "->", result.words)
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``__all__`` and PEP 562 ``__getattr__``/``__dir__`` for a package.

    ``table`` maps each submodule of ``package`` to the names the
    package exports from it; ``"NAME as ALIAS"`` exports the
    submodule's ``NAME`` as ``ALIAS``.  The table is the one list of
    exports: ``__all__`` is built from it.  The first access to a name
    imports its submodule and stores the value in the package's
    globals, so later accesses never reach ``__getattr__``.  Submodules
    themselves need no entry: the import system binds them.
    """
    namespace = sys.modules[package].__dict__
    sources = {}
    for module, names in table.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            sources[alias or name] = (f"{package}.{module}", name)

    def __getattr__(name: str):
        try:
            module, attribute = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attribute)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | sources.keys())

    return list(sources), __getattr__, __dir__
