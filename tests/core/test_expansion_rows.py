"""Typed expansion rows read back exactly what list rows held.

``ExpansionRow`` keeps its label-space columns in ``array.array``
buffers at the narrowest width the LM's sizes allow.  The replay in
``LmLookup.resolve_batch`` indexes them item by item, so its
bit-identity with the scalar engine rests on every read yielding the
same native ``int`` / ``float`` a list row would.  These tests pin that
against list rows built here from the CSR columns by plain Python
searches, on every LM state of two presets and on a synthetic LM wide
enough to overflow int8; they bound each row's buffer bytes by its
modelled ``size_bytes()``, and check that decoding leaves no list-backed
row in the shared memo.
"""

from array import array
from bisect import bisect_left

import numpy as np
import pytest

from repro.asr import KALDI_LIBRISPEECH, TINY, build_task
from repro.core import (
    DecoderConfig,
    LmLookup,
    LookupStrategy,
    OnTheFlyDecoder,
    batch,
)
from repro.asr.streaming import StreamingSession
from repro.lm.graph import LmGraph
from repro.wfst.fst import SymbolTable, Wfst

LABEL_COLUMNS = ("found_level", "arc_weight", "arc_next", "arc_ordinal")


def _binary_probes(labels: list[int], word: int) -> int:
    """Arc fetches of the scalar binary search for ``word``."""
    lo, hi, probes = 0, len(labels) - 1, 0
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        if labels[mid] == word:
            return probes
        if labels[mid] < word:
            lo = mid + 1
        else:
            hi = mid - 1
    return probes


def _list_rows(soa, linear: bool) -> list[dict]:
    """Every LM state's row as native lists, from the CSR columns."""
    offsets = soa.offsets.tolist()
    ilabel = soa.ilabel.tolist()
    weight = soa.weight.tolist()
    nextstate = soa.nextstate.tolist()
    chain_offsets = soa.chain_offsets.tolist()
    chain_states = soa.chain_states.tolist()
    space = soa.label_space
    num_states = len(offsets) - 1
    # Per LM state: the word's position in its arcs and the probes paid.
    position, probes = [], []
    for state in range(num_states):
        labels = ilabel[offsets[state] : offsets[state + 1]]
        n = len(labels)
        pos = [bisect_left(labels, word) for word in range(space)]
        found = [p if p < n and labels[p] == w else -1 for w, p in enumerate(pos)]
        position.append(found)
        if linear:
            probes.append([p + 1 if p < n else n for p in pos])
        else:
            probes.append([_binary_probes(labels, w) for w in range(space)])
    rows = []
    for state in range(num_states):
        chain = chain_states[chain_offsets[state] : chain_offsets[state + 1]]
        row = {
            "found_level": [-1] * space,
            "arc_weight": [0.0] * space,
            "arc_next": [-1] * space,
            "arc_ordinal": [-1] * space,
            "steps": [probes[s] for s in chain],
        }
        for word in range(space):
            for level, s in enumerate(chain):
                ordinal = position[s][word]
                if ordinal >= 0:
                    arc = offsets[s] + ordinal
                    row["found_level"][word] = level
                    row["arc_weight"][word] = weight[arc]
                    row["arc_next"][word] = nextstate[arc]
                    row["arc_ordinal"][word] = ordinal
                    break
        rows.append(row)
    return rows


def _assert_reads_back(row, want, context):
    """Same type, equal ints, floats equal by ``.hex()``."""
    assert isinstance(row.steps, list), context
    assert len(row.steps) == len(want["steps"]), context
    columns = [(name, getattr(row, name), want[name]) for name in LABEL_COLUMNS]
    columns += [
        (f"steps[{level}]", column, want["steps"][level])
        for level, column in enumerate(row.steps)
    ]
    for name, column, expected in columns:
        assert isinstance(column, array), (context, name)
        got = list(column)
        if name == "arc_weight":
            assert all(type(x) is float for x in got), (context, name)
            assert [x.hex() for x in got] == [x.hex() for x in expected], (
                context,
                name,
            )
        else:
            assert all(type(x) is int for x in got), (context, name)
            assert got == expected, (context, name)


def _buffer_bytes(row) -> int:
    columns = [getattr(row, name) for name in LABEL_COLUMNS] + row.steps
    return sum(column.itemsize * len(column) for column in columns)


def _check_every_state(graph, strategies):
    for strategy in strategies:
        lookup = LmLookup(graph, strategy=strategy)
        soa = lookup._ensure_batch_structures()
        cache = lookup.expansion_cache
        want = _list_rows(soa, linear=strategy is LookupStrategy.LINEAR)
        for state, expected in enumerate(want):
            row = cache._build_row(state)
            _assert_reads_back(row, expected, (strategy, state))
            assert _buffer_bytes(row) <= row.size_bytes(), (strategy, state)


@pytest.mark.parametrize(
    "config", [TINY, KALDI_LIBRISPEECH], ids=lambda c: c.name
)
def test_rows_read_back_the_list_rows(config):
    _check_every_state(build_task(config).lm, list(LookupStrategy))


def _wide_unigram_lm(vocab: int = 320) -> LmGraph:
    """Unigram state 0 carries every word; two bigram states carry a
    few and back off to it."""
    words = SymbolTable("words")
    for w in range(1, vocab + 1):
        words.add(f"w{w}")
    backoff_label = words.add("#phi")
    fst = Wfst()
    fst.add_states(3)
    fst.start = 0
    rng = np.random.default_rng(3)
    for label in range(1, vocab + 1):
        fst.add_arc(
            0,
            ilabel=label,
            olabel=label,
            weight=round(float(rng.uniform(0.5, 9.0)), 3),
            nextstate=int(rng.integers(0, 3)),
        )
    for state, labels in ((1, (2, 150, 301)), (2, (7, 300))):
        for label in labels:
            fst.add_arc(state, label, label, 0.25 * label / vocab, 0)
        fst.add_arc(state, backoff_label, backoff_label, 0.5 * state, 0)
    for state in range(3):
        fst.set_final(state, 0.0)
    return LmGraph(
        fst=fst,
        words=words,
        backoff_label=backoff_label,
        state_of_context={(): 0},
        context_of_state=[()] * 3,
    )


def test_wide_lm_overflows_int8():
    """Over 300 arcs at one state: linear probe counts and ordinals
    need int16, and the replay still matches scalar resolves."""
    graph = _wide_unigram_lm()
    lookup = LmLookup(graph, strategy=LookupStrategy.LINEAR)
    soa = lookup._ensure_batch_structures()
    assert soa.row_typecodes == ("b", "h", "b")
    _check_every_state(graph, [LookupStrategy.LINEAR])
    row = lookup.expansion_cache._build_row(2)
    assert max(row.steps[1]) == 320 and max(row.arc_ordinal) == 319

    scalar = LmLookup(graph, strategy=LookupStrategy.LINEAR)
    states = [s for s in range(3) for _ in range(1, 321)]
    words = [w for _ in range(3) for w in range(1, 321)]
    got = lookup.resolve_batch(states, words, [0.0] * len(words))
    for i, (s, w) in enumerate(zip(states, words)):
        ref = scalar.resolve(s, w)
        assert got.weight[i].hex() == ref.weight.hex(), (s, w)
        assert got.next_state[i] == ref.next_state, (s, w)
        assert got.backoff_levels[i] == ref.backoff_levels, (s, w)
    assert lookup.stats == scalar.stats


def test_decoded_memo_rows_hold_no_lists(tiny_task, tiny_scores, monkeypatch):
    """Rows built by real decodes — solo and a forked streaming session
    sharing the memo — are typed through and through."""
    monkeypatch.setattr(batch, "SCALAR_FRONTIER_MAX", 0)
    decoder = OnTheFlyDecoder(
        tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0, max_active=800)
    )
    for scores in tiny_scores[:3]:
        decoder.decode(scores)
    session = StreamingSession(decoder, lookup=decoder.lookup.fork())
    session.push(tiny_scores[3])
    session.finish()
    memo = decoder.lookup._row_memo
    assert memo and session._seg.lookup._row_memo is memo
    for state, row in memo.items():
        for name in LABEL_COLUMNS:
            assert not isinstance(getattr(row, name), list), (state, name)
        assert all(not isinstance(level, list) for level in row.steps), state
