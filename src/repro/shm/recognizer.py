"""Pack a recognizer into shared memory; attach it zero-copy.

:func:`pack_recognizer` flattens everything N decode processes need to
share — the AM's emitting/epsilon CSR columns, the LM's word-arc
columns with back-off arcs, per-LM-state final weights, the symbol
table, and the acoustic scorer's parameter arrays — into one named
:mod:`repro.shm.segments` segment.  :func:`attach_recognizer` maps that
segment and rebuilds a decode-ready recognizer whose arrays are
**read-only views of the shared pages**: graph metadata and Python
wrappers are rebuilt per process (a few objects), the megabytes stay
mapped once.

This is the paper's shared-dataset / small-channel-state argument at
process scale, and the fix for fork copy-on-write inheritance: a forked
child's refcount churn dirties (privatizes) the very pages holding the
graphs, while an attached segment's pages physically cannot be
privatized by reads.

Numerics: the packed tables hold every arc, back-off and final weight
rounded to float32 exactly as the binary bundle codec stores it
(``DecoderTables.from_graphs(..., np.float32)``, byte-equal to building
them from :func:`bundle_quantize`'s round-tripped graphs, without
building those).  Every multi-process consumer historically decoded
from a loaded bundle, so a segment is **bit-identical** to the pickled
bundle path — results, stats, and all cache counters (property-tested
in ``tests/shm``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from repro.am.graph import AmGraph
from repro.am.hmm import HmmTopology
from repro.am.scorer import AcousticScorer, ScorerKind
from repro.core.arcs import EmittingArcs, EpsilonArcs, LmWordArcs
from repro.core.decoder import DecoderTables
from repro.lm.graph import LmGraph
from repro.shm.segments import (
    SharedArrays,
    ShmVersionError,
    attach_arrays,
    pack_arrays,
)
from repro.wfst.io import deserialize, serialize
from repro.wfst.text_format import read_symbol_table, write_symbol_table

#: Version of the recognizer-level packing (array names + meta schema),
#: layered on top of the segment layout version.
RECOGNIZER_SHM_VERSION = 2

_SCORER_PREFIX = "scorer."


class _FstView:
    """The slice of the ``Wfst`` surface a tables-built decoder touches.

    Just ``start`` and ``num_states``: arcs and final weights live in
    the :class:`~repro.core.decoder.DecoderTables` columns, never here.
    """

    def __init__(self, num_states: int, start: int) -> None:
        self.num_states = num_states
        self.start = start


@dataclass
class AttachedRecognizer:
    """A recognizer reconstructed from a shared segment.

    ``am``/``lm`` are real :class:`AmGraph`/:class:`LmGraph` instances
    over :class:`_FstView` stand-ins — everything a tables-built
    decoder, streaming session, or serving engine reads is present;
    walking arcs through the graph objects is not (arcs live in
    ``tables``).  Hand ``(am, lm, tables)`` to
    :class:`~repro.core.decoder.OnTheFlyDecoder` with ``tables=``.
    """

    am: AmGraph
    lm: LmGraph
    scorer: AcousticScorer | None
    tables: DecoderTables
    shared: SharedArrays

    @property
    def segment_name(self) -> str:
        return self.shared.name

    @property
    def nbytes(self) -> int:
        return self.shared.nbytes

    def close(self) -> None:
        self.shared.close()

    def unlink(self) -> None:
        self.shared.unlink()

def bundle_quantize(am: AmGraph, lm: LmGraph) -> tuple[AmGraph, LmGraph]:
    """Round-trip both graphs through the bundle codec, in memory.

    The binary codec stores arc and final weights as float32; loading a
    saved bundle therefore decodes with narrowed weights.  The
    reference for :func:`pack_recognizer`'s tables, which round the
    same weights without building these graphs, and for decoders that
    walk graphs rather than tables (the bench's traced layers).
    """
    words = lm.words
    am_fst = deserialize(serialize(am.fst))
    am_fst.output_symbols = words
    lm_fst = deserialize(serialize(lm.fst))
    lm_fst.input_symbols = words
    lm_fst.output_symbols = words
    return replace(am, fst=am_fst), replace(lm, fst=lm_fst)


def pack_recognizer(
    am: AmGraph,
    lm: LmGraph,
    scorer: AcousticScorer | None = None,
    name: str | None = None,
) -> AttachedRecognizer:
    """Pack a recognizer into a new named segment; returns the owner.

    The owner handle is itself a fully usable
    :class:`AttachedRecognizer` (its arrays view the shared pages), and
    is responsible for :meth:`~AttachedRecognizer.unlink`.  Weights
    are packed rounded to float32, as the bundle codec stores them.
    """
    tables = DecoderTables.from_graphs(am, lm, np.float32)
    emit, eps, lmw = tables.emitting, tables.epsilon, tables.lm_word_arcs

    words_stream = io.StringIO()
    write_symbol_table(lm.words, words_stream)
    words_blob = np.frombuffer(
        words_stream.getvalue().encode(), dtype=np.uint8
    )
    senone_items = sorted(am.chain_state_senone.items())
    arrays: dict[str, np.ndarray] = {
        "emit_offsets": emit.offsets,
        "emit_ilabel": emit.ilabel,
        "emit_weight": emit.weight,
        "emit_nextstate": emit.nextstate,
        "emit_ordinal": emit.ordinal,
        "emit_score_index": emit.score_index,
        "eps_offsets": eps.offsets,
        "eps_olabel": eps.olabel,
        "eps_weight": eps.weight,
        "eps_nextstate": eps.nextstate,
        "eps_ordinal": eps.ordinal,
        "eps_has_arcs": eps.has_arcs,
        "lm_offsets": lmw.offsets,
        "lm_ilabel": lmw.ilabel,
        "lm_weight": lmw.weight,
        "lm_nextstate": lmw.nextstate,
        "lm_backoff_next": lmw.backoff_next,
        "lm_backoff_weight": lmw.backoff_weight,
        "lm_final_weights": tables.lm_final_weights,
        "words_text": words_blob,
        "senone_states": np.array(
            [k for k, _ in senone_items], dtype=np.int64
        ),
        "senone_ids": np.array(
            [v for _, v in senone_items], dtype=np.int64
        ),
    }
    if scorer is not None:
        # Function-level: repro.asr imports this package (the decode
        # pool attaches segments), so a module-level import is a cycle
        # for any process that imports repro.shm first.
        from repro.asr.persist import _scorer_arrays

        for key, value in _scorer_arrays(scorer).items():
            arrays[_SCORER_PREFIX + key] = np.asarray(value)
    meta = {
        "recognizer_version": RECOGNIZER_SHM_VERSION,
        "am_num_states": am.fst.num_states,
        "loop_state": am.loop_state,
        "num_senones": am.num_senones,
        "states_per_phone": am.topology.states_per_phone,
        "self_loop_prob": am.topology.self_loop_prob,
        "lm_num_states": lm.fst.num_states,
        "lm_start": lm.fst.start,
        "backoff_label": lm.backoff_label,
        "emit_pure": emit.pure_emitting,
        "eps_single_level": eps.single_level,
        "eps_nonneg": eps.nonneg_weights,
        "lm_label_space": lmw.label_space,
        "lm_nonneg": lmw.nonneg_weights,
        "scorer_kind": scorer.kind.value if scorer is not None else None,
    }
    shared = pack_arrays(arrays, meta=meta, name=name)
    return _reconstruct(shared)


def attach_recognizer(name: str, verify: bool = True) -> AttachedRecognizer:
    """Map a packed recognizer segment as zero-copy read-only views."""
    shared = attach_arrays(name, verify=verify)
    try:
        return _reconstruct(shared)
    except Exception:
        shared.close()
        raise


def _reconstruct(shared: SharedArrays) -> AttachedRecognizer:
    meta = shared.meta
    version = meta.get("recognizer_version")
    if version != RECOGNIZER_SHM_VERSION:
        raise ShmVersionError(
            f"segment {shared.name!r} packs recognizer schema {version}, "
            f"this reader supports {RECOGNIZER_SHM_VERSION}"
        )
    a = shared.arrays
    tables = DecoderTables(
        emitting=EmittingArcs(
            offsets=a["emit_offsets"],
            ilabel=a["emit_ilabel"],
            weight=a["emit_weight"],
            nextstate=a["emit_nextstate"],
            ordinal=a["emit_ordinal"],
            score_index=a["emit_score_index"],
            pure_emitting=meta["emit_pure"],
        ),
        epsilon=EpsilonArcs(
            offsets=a["eps_offsets"],
            olabel=a["eps_olabel"],
            weight=a["eps_weight"],
            nextstate=a["eps_nextstate"],
            ordinal=a["eps_ordinal"],
            has_arcs=a["eps_has_arcs"],
            single_level=meta["eps_single_level"],
            nonneg_weights=meta["eps_nonneg"],
        ),
        lm_word_arcs=LmWordArcs(
            label_space=meta["lm_label_space"],
            offsets=a["lm_offsets"],
            ilabel=a["lm_ilabel"],
            weight=a["lm_weight"],
            nextstate=a["lm_nextstate"],
            backoff_next=a["lm_backoff_next"],
            backoff_weight=a["lm_backoff_weight"],
            nonneg_weights=meta["lm_nonneg"],
        ),
        lm_final_weights=a["lm_final_weights"],
    )
    words = read_symbol_table(
        io.StringIO(bytes(a["words_text"]).decode()), name="words"
    )
    am = AmGraph(
        fst=_FstView(meta["am_num_states"], meta["loop_state"]),
        words=words,
        topology=HmmTopology(
            states_per_phone=meta["states_per_phone"],
            self_loop_prob=meta["self_loop_prob"],
        ),
        loop_state=meta["loop_state"],
        num_senones=meta["num_senones"],
        chain_state_senone=dict(
            zip(a["senone_states"].tolist(), a["senone_ids"].tolist())
        ),
    )
    lm = LmGraph(
        fst=_FstView(meta["lm_num_states"], meta["lm_start"]),
        words=words,
        backoff_label=meta["backoff_label"],
        state_of_context={},
        context_of_state=[],
    )
    scorer = None
    if meta["scorer_kind"] is not None:
        from repro.asr.persist import _scorer_from_arrays  # see pack_recognizer

        scorer = _scorer_from_arrays(
            ScorerKind(meta["scorer_kind"]),
            {
                key[len(_SCORER_PREFIX) :]: value
                for key, value in a.items()
                if key.startswith(_SCORER_PREFIX)
            },
        )
    return AttachedRecognizer(
        am=am, lm=lm, scorer=scorer, tables=tables, shared=shared
    )
