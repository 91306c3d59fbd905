"""LM WFST compression (Section 3.4).

Three arc classes, as in the paper:

* **Unigram arcs** (outgoing arcs of state 0): one per vocabulary word,
  in word-id order, so the word id is implicit in the position and the
  destination is implicit in the word id — each arc stores only its
  6-bit quantized weight.  The paper's models have a bigram state for
  every word; in a pruned LM some words have none, in which case the
  destination is state 0 itself.  A per-word bitmap (1 bit/word) makes
  the inference exact; states are renumbered so that the bigram state of
  the k-th flagged word is state ``1 + k``.
* **Back-off arcs** (last arc of every non-initial state): 27 bits —
  6-bit weight + 21-bit destination.
* **All other arcs**: 45 bits — 18-bit word id + 6-bit weight + 21-bit
  destination.

Fixed record sizes per class preserve the random access the binary
search needs: the i-th word arc of a state sits at ``base + 45*i``.
``unpack_lm`` reconstructs the full graph (quantized, renumbered),
proving the format is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compress.bits import BitReader, BitWriter
from repro.compress.quantize import (
    CENTROID_TABLE_BYTES,
    WeightQuantizer,
    fit_wfst_quantizer,
)
from repro.lm.graph import LmGraph
from repro.wfst.fst import EPSILON, Wfst

WEIGHT_BITS = 6
WORD_BITS = 18
DEST_BITS = 21

UNIGRAM_ARC_BITS = WEIGHT_BITS  # 6
BACKOFF_ARC_BITS = WEIGHT_BITS + DEST_BITS  # 27
REGULAR_ARC_BITS = WORD_BITS + WEIGHT_BITS + DEST_BITS  # 45


@dataclass
class PackedLm:
    """Bit-packed LM plus decode metadata."""

    data: bytes
    bit_length: int
    quantizer: WeightQuantizer
    num_states: int
    num_words: int
    start: int  # renumbered start state
    backoff_label: int
    state_offsets: list[int]  # first-arc bit offset per renumbered state
    word_arc_counts: list[int]  # word arcs per state (back-off excluded)
    has_backoff: list[bool]
    bigram_state_bitmap: list[bool]  # per word id (1-based word ids)
    finals: dict[int, float] = field(default_factory=dict)
    permutation: list[int] = field(default_factory=list)  # old -> new ids
    unigram_arcs: int = 0
    backoff_arcs: int = 0
    regular_arcs: int = 0

    @property
    def arc_bytes(self) -> int:
        return (self.bit_length + 7) // 8

    @property
    def bitmap_bytes(self) -> int:
        return (self.num_words + 7) // 8

    @property
    def size_bytes(self) -> int:
        return self.arc_bytes + self.bitmap_bytes + CENTROID_TABLE_BYTES


def pack_lm(graph: LmGraph, quantizer: WeightQuantizer | None = None) -> PackedLm:
    """Pack an LM graph into the Section 3.4 format."""
    fst = graph.fst
    if quantizer is None:
        quantizer = fit_wfst_quantizer(fst)

    word_ids = [wid for wid, _ in graph.words if 0 < wid < graph.backoff_label]
    num_words = len(word_ids)

    permutation = _renumber(graph)
    inverse = [0] * fst.num_states
    for old, new in enumerate(permutation):
        inverse[new] = old

    # Bigram-state bitmap: word id w (1-based) -> has its own state.
    bigram_state_of_word = {}
    for context, state in graph.state_of_context.items():
        if len(context) == 1 and context[0] in graph.words:
            bigram_state_of_word[graph.words.id_of(context[0])] = state
    bitmap = [wid in bigram_state_of_word for wid in word_ids]

    writer = BitWriter()
    state_offsets: list[int] = []
    word_arc_counts: list[int] = []
    has_backoff: list[bool] = []
    unigram_arcs = backoff_arcs = regular_arcs = 0

    for new_state in range(fst.num_states):
        old_state = inverse[new_state]
        arcs = fst.out_arcs(old_state)
        state_offsets.append(writer.bit_length)
        backoff = graph.backoff_arc(old_state)
        word_arcs = arcs[:-1] if backoff is not None else arcs
        word_arc_counts.append(len(word_arcs))
        has_backoff.append(backoff is not None)

        if old_state == graph.unigram_state:
            # Positional format: one 6-bit weight per vocabulary word.
            by_word = {a.ilabel: a for a in word_arcs}
            if set(by_word) != set(word_ids):
                raise ValueError(
                    "unigram state must have exactly one arc per word"
                )
            for wid in word_ids:
                writer.write(quantizer.encode(by_word[wid].weight), WEIGHT_BITS)
                unigram_arcs += 1
        else:
            for arc in word_arcs:
                writer.write(arc.ilabel, WORD_BITS)
                writer.write(quantizer.encode(arc.weight), WEIGHT_BITS)
                writer.write(permutation[arc.nextstate], DEST_BITS)
                regular_arcs += 1
        if backoff is not None:
            writer.write(quantizer.encode(backoff.weight), WEIGHT_BITS)
            writer.write(permutation[backoff.nextstate], DEST_BITS)
            backoff_arcs += 1

    finals = {
        permutation[s]: w for s, w in fst.finals.items()
    }
    return PackedLm(
        data=writer.getvalue(),
        bit_length=writer.bit_length,
        quantizer=quantizer,
        num_states=fst.num_states,
        num_words=num_words,
        start=permutation[fst.start],
        backoff_label=graph.backoff_label,
        state_offsets=state_offsets,
        word_arc_counts=word_arc_counts,
        has_backoff=has_backoff,
        bigram_state_bitmap=bitmap,
        finals=finals,
        permutation=permutation,
        unigram_arcs=unigram_arcs,
        backoff_arcs=backoff_arcs,
        regular_arcs=regular_arcs,
    )


def _renumber(graph: LmGraph) -> list[int]:
    """Old-state -> new-state permutation.

    New order: unigram state 0 first, then bigram states sorted by their
    context's word id (making unigram-arc destinations inferable), then
    everything else in old order.
    """
    fst = graph.fst
    bigram_states = sorted(
        (
            (graph.words.id_of(context[0]), state)
            for context, state in graph.state_of_context.items()
            if len(context) == 1 and context[0] in graph.words
        ),
    )
    order = [graph.unigram_state]
    order.extend(state for _, state in bigram_states)
    placed = set(order)
    order.extend(s for s in fst.states() if s not in placed)
    permutation = [0] * fst.num_states
    for new, old in enumerate(order):
        permutation[old] = new
    return permutation


def unpack_lm(packed: PackedLm) -> Wfst:
    """Reconstruct the (quantized, renumbered) LM WFST."""
    fst = Wfst()
    fst.add_states(packed.num_states)
    fst.set_start(packed.start)
    reader = BitReader(packed.data, packed.bit_length)

    # Destinations of unigram arcs: k-th flagged word -> state 1 + k.
    unigram_dest = {}
    next_state = 1
    for i, flagged in enumerate(packed.bigram_state_bitmap):
        wid = i + 1
        if flagged:
            unigram_dest[wid] = next_state
            next_state += 1
        else:
            unigram_dest[wid] = 0

    for state in range(packed.num_states):
        reader.seek(packed.state_offsets[state])
        if state == 0:
            for i in range(packed.word_arc_counts[state]):
                wid = i + 1
                weight = packed.quantizer.decode(reader.read(WEIGHT_BITS))
                fst.add_arc(state, wid, wid, weight, unigram_dest[wid])
        else:
            for _ in range(packed.word_arc_counts[state]):
                wid = reader.read(WORD_BITS)
                weight = packed.quantizer.decode(reader.read(WEIGHT_BITS))
                dest = reader.read(DEST_BITS)
                fst.add_arc(state, wid, wid, weight, dest)
        if packed.has_backoff[state]:
            weight = packed.quantizer.decode(reader.read(WEIGHT_BITS))
            dest = reader.read(DEST_BITS)
            fst.add_arc(state, packed.backoff_label, EPSILON, weight, dest)
    for state, weight in packed.finals.items():
        fst.set_final(
            state,
            packed.quantizer.quantize(weight) if np.isfinite(weight) else weight,
        )
    return fst
