"""AM WFST compression (Section 3.4, Figure 5).

Most AM arcs carry no word label and point to the same, previous or next
state, so they pack into 20 bits: a 12-bit senone label, a 6-bit
quantized weight and a 2-bit destination tag.  The remaining arcs
(cross-word transitions and chain entries from the loop state) append an
18-bit word id and a 20-bit destination state.

Arcs are serialized sequentially per state; the 2-bit tag tells the Arc
Issuer whether to fetch the 38 extra bits, which is safe because AM arcs
are always explored sequentially (Section 3.4).  The packer is a real
codec: ``unpack_am`` reconstructs the transducer exactly (with quantized
weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.bits import BitReader, BitWriter
from repro.compress.quantize import (
    CENTROID_TABLE_BYTES,
    WeightQuantizer,
    fit_wfst_quantizer,
)
from repro.wfst.fst import EPSILON, Wfst

LABEL_BITS = 12
WEIGHT_BITS = 6
TAG_BITS = 2
WORD_BITS = 18
DEST_BITS = 20

SHORT_ARC_BITS = LABEL_BITS + WEIGHT_BITS + TAG_BITS  # 20
LONG_ARC_BITS = SHORT_ARC_BITS + WORD_BITS + DEST_BITS  # 58

TAG_SELF = 0b11
TAG_NEXT = 0b10
TAG_PREV = 0b01
TAG_NORMAL = 0b00


@dataclass
class PackedAm:
    """Bit-packed AM arcs plus decode metadata."""

    data: bytes
    bit_length: int
    arc_offsets: list[int]  # first-arc bit offset per state
    arc_counts: list[int]
    quantizer: WeightQuantizer
    start: int
    finals: dict[int, float]
    num_states: int
    short_arcs: int = 0
    long_arcs: int = 0

    @property
    def arc_bytes(self) -> int:
        return (self.bit_length + 7) // 8

    @property
    def size_bytes(self) -> int:
        """Arc array plus the on-chip centroid table."""
        return self.arc_bytes + CENTROID_TABLE_BYTES

    @property
    def num_arcs(self) -> int:
        return self.short_arcs + self.long_arcs

    @property
    def short_fraction(self) -> float:
        return self.short_arcs / self.num_arcs if self.num_arcs else 0.0


def pack_am(fst: Wfst, quantizer: WeightQuantizer | None = None) -> PackedAm:
    """Pack an AM transducer into the Figure 5 format."""
    if quantizer is None:
        quantizer = fit_wfst_quantizer(fst)
    writer = BitWriter()
    arc_offsets: list[int] = []
    arc_counts: list[int] = []
    short_arcs = 0
    long_arcs = 0
    for state in fst.states():
        arcs = fst.out_arcs(state)
        arc_offsets.append(writer.bit_length)
        arc_counts.append(len(arcs))
        for arc in arcs:
            weight_idx = quantizer.encode(arc.weight)
            tag = _tag_for(state, arc.nextstate, arc.olabel)
            writer.write(arc.ilabel, LABEL_BITS)
            writer.write(weight_idx, WEIGHT_BITS)
            writer.write(tag, TAG_BITS)
            if tag == TAG_NORMAL:
                writer.write(arc.olabel, WORD_BITS)
                writer.write(arc.nextstate, DEST_BITS)
                long_arcs += 1
            else:
                short_arcs += 1
    return PackedAm(
        data=writer.getvalue(),
        bit_length=writer.bit_length,
        arc_offsets=arc_offsets,
        arc_counts=arc_counts,
        quantizer=quantizer,
        start=fst.start,
        finals=dict(fst.finals),
        num_states=fst.num_states,
        short_arcs=short_arcs,
        long_arcs=long_arcs,
    )


def _tag_for(state: int, nextstate: int, olabel: int) -> int:
    if olabel != EPSILON:
        return TAG_NORMAL
    if nextstate == state:
        return TAG_SELF
    if nextstate == state + 1:
        return TAG_NEXT
    if nextstate == state - 1:
        return TAG_PREV
    return TAG_NORMAL


def unpack_am(packed: PackedAm) -> Wfst:
    """Reconstruct the (weight-quantized) AM transducer."""
    fst = Wfst()
    fst.add_states(packed.num_states)
    if packed.start >= 0:
        fst.set_start(packed.start)
    reader = BitReader(packed.data, packed.bit_length)
    for state in range(packed.num_states):
        reader.seek(packed.arc_offsets[state])
        for _ in range(packed.arc_counts[state]):
            ilabel = reader.read(LABEL_BITS)
            weight = packed.quantizer.decode(reader.read(WEIGHT_BITS))
            tag = reader.read(TAG_BITS)
            if tag == TAG_NORMAL:
                olabel = reader.read(WORD_BITS)
                nextstate = reader.read(DEST_BITS)
            else:
                olabel = EPSILON
                if tag == TAG_SELF:
                    nextstate = state
                elif tag == TAG_NEXT:
                    nextstate = state + 1
                else:
                    nextstate = state - 1
            fst.add_arc(state, ilabel, olabel, weight, nextstate)
    for state, weight in packed.finals.items():
        fst.set_final(
            state,
            packed.quantizer.quantize(weight) if np.isfinite(weight) else weight,
        )
    return fst
