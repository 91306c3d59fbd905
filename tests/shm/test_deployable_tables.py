"""The deployable decoder tables equal the bundle codec round trip's.

``DecoderTables.from_graphs(am, lm, np.float32)`` — what the serial
``DecodePool`` decodes over and ``pack_recognizer`` packs — rounds each
weight column to float32 and back instead of building the graphs
:func:`~repro.shm.bundle_quantize` round-trips through the codec.  The
two must agree byte for byte, every gate flag included.
"""

import copy
import dataclasses

import numpy as np
import pytest

import repro.asr as asr
from repro.core.arcs import LmWordArcs
from repro.core.decoder import DecoderTables
from repro.lm.graph import LmGraph
from repro.shm import bundle_quantize
from repro.wfst import SymbolTable, Wfst
from repro.wfst.io import deserialize, serialize

PRESETS = (
    "TINY",
    "KALDI_VOXFORGE",
    "KALDI_LIBRISPEECH",
    "KALDI_TEDLIUM",
    "EESEN_TEDLIUM",
)


def _columns(tables: DecoderTables) -> dict:
    """Every column and flag of ``tables``, by dotted name."""
    out = {"lm_final_weights": tables.lm_final_weights}
    for part in ("emitting", "epsilon", "lm_word_arcs"):
        value = getattr(tables, part)
        for spec in dataclasses.fields(value):
            out[f"{part}.{spec.name}"] = getattr(value, spec.name)
    return out


@pytest.mark.parametrize("preset", PRESETS)
def test_deployable_tables_equal_the_codec_round_trip(preset):
    task = asr.build_task(getattr(asr, preset))
    want = _columns(DecoderTables.from_graphs(*bundle_quantize(task.am, task.lm)))
    got = _columns(DecoderTables.from_graphs(task.am, task.lm, np.float32))
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype, name
            assert got[name].shape == value.shape, name
            assert got[name].tobytes() == value.tobytes(), name
        else:
            assert type(got[name]) is type(value), name
            assert got[name] == value, name


def _one_word_lm(backoff_weight: float) -> LmGraph:
    """A unigram state with one zero-cost word and a bigram state that
    backs off to it at ``backoff_weight``."""
    words = SymbolTable("words")
    words.add("w1")
    backoff_label = words.add("#phi")
    fst = Wfst()
    fst.add_states(2)
    fst.start = 0
    fst.add_arc(0, ilabel=1, olabel=1, weight=0.0, nextstate=1)
    fst.add_arc(
        1, ilabel=backoff_label, olabel=backoff_label,
        weight=backoff_weight, nextstate=0,
    )
    fst.set_final(0, 0.0)
    fst.set_final(1, 0.0)
    return LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0, ("w1",): 1},
        context_of_state=[(), ("w1",)],
    )


def test_gates_see_the_rounded_weights():
    """-1e-50 is -0.0 in float32: the total -1e-50 + 0.0 is negative at
    float64 but not once rounded, so the deployable gate passes as the
    round-tripped graph's does."""
    graph = _one_word_lm(-1e-50)
    round_tripped = dataclasses.replace(
        graph, fst=deserialize(serialize(graph.fst))
    )
    assert not LmWordArcs.from_graph(graph).nonneg_weights
    reference = LmWordArcs.from_graph(round_tripped)
    deployable = LmWordArcs.from_graph(graph, np.float32)
    assert reference.nonneg_weights and deployable.nonneg_weights
    assert (
        deployable.backoff_weight.tobytes()
        == reference.backoff_weight.tobytes()
    )


@pytest.mark.parametrize("side", ["am", "lm"])
def test_weight_float32_cannot_hold_raises(tiny_task, side):
    """A finite weight beyond float32's range raises ``OverflowError``,
    as the codec's ``struct.pack`` does, instead of becoming ``inf``."""
    graph = getattr(tiny_task, side)
    fst = copy.deepcopy(graph.fst)
    fst.arcs[fst.start][0] = dataclasses.replace(
        fst.arcs[fst.start][0], weight=1e39
    )
    graphs = {"am": tiny_task.am, "lm": tiny_task.lm}
    graphs[side] = dataclasses.replace(graph, fst=fst)
    with pytest.raises(OverflowError):
        bundle_quantize(graphs["am"], graphs["lm"])
    with pytest.raises(OverflowError):
        DecoderTables.from_graphs(graphs["am"], graphs["lm"], np.float32)
    # The exact tables hold the weight as it is.
    DecoderTables.from_graphs(graphs["am"], graphs["lm"])
