"""Memory layouts: mapping decoder events to byte addresses.

The cache simulators need the address and size of every state record,
arc record and token write.  Two layouts are provided:

* :class:`OnTheFlyLayout` — UNFOLD's view: the compressed AM and LM
  from Section 3.4, each a base+delta state table plus a bit-packed arc
  array (real packed offsets from the packers);
* :class:`ComposedLayout` — the baseline's view: one uncompressed
  composed WFST (8-byte states, 16-byte arcs) laid out by the
  structural model of ``repro.compress.composed_model``.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.asr.task import AsrTask
from repro.compress.am_pack import (
    LONG_ARC_BITS as AM_LONG_BITS,
    SHORT_ARC_BITS as AM_SHORT_BITS,
    PackedAm,
    pack_am,
)
from repro.compress.composed_model import ComposedAddressMap, build_address_map
from repro.compress.lm_pack import (
    BACKOFF_ARC_BITS,
    REGULAR_ARC_BITS,
    UNIGRAM_ARC_BITS,
    PackedLm,
    pack_lm,
)
from repro.wfst.io import ARC_RECORD_BYTES, STATE_RECORD_BYTES

#: Compressed state record: ~37 bits with the base+delta scheme.
PACKED_STATE_BYTES = 5


@dataclass
class OnTheFlyLayout:
    """Addresses in UNFOLD's compressed dataset.

    Regions (all offsets in bytes):
    [AM states][AM arcs][LM states][LM arcs]
    """

    packed_am: PackedAm
    packed_lm: PackedLm
    am_arc_bit_offsets: list[list[int]]

    @classmethod
    def build(cls, task: "AsrTask") -> "OnTheFlyLayout":
        packed_am = pack_am(task.am.fst)
        packed_lm = pack_lm(task.lm)
        offsets = _per_arc_bit_offsets(task, packed_am)
        return cls(
            packed_am=packed_am, packed_lm=packed_lm, am_arc_bit_offsets=offsets
        )

    # Region bases.
    @property
    def _am_arc_base(self) -> int:
        return self.packed_am.num_states * PACKED_STATE_BYTES

    @property
    def _lm_state_base(self) -> int:
        return self._am_arc_base + self.packed_am.arc_bytes

    @property
    def _lm_arc_base(self) -> int:
        return self._lm_state_base + self.packed_lm.num_states * PACKED_STATE_BYTES

    @property
    def total_bytes(self) -> int:
        return self._lm_arc_base + self.packed_lm.arc_bytes

    def am_state_record(self, state: int) -> tuple[int, int]:
        return state * PACKED_STATE_BYTES, PACKED_STATE_BYTES

    def am_arc_record(self, state: int, ordinal: int) -> tuple[int, int]:
        offsets = self.am_arc_bit_offsets[state]
        bit = offsets[min(ordinal, len(offsets) - 1)]
        nbytes = (AM_LONG_BITS + 7) // 8 if self._am_arc_is_long(state, ordinal) else (
            AM_SHORT_BITS + 7
        ) // 8
        return self._am_arc_base + bit // 8, nbytes

    def _am_arc_is_long(self, state: int, ordinal: int) -> bool:
        offsets = self.am_arc_bit_offsets[state]
        if ordinal + 1 < len(offsets):
            return offsets[ordinal + 1] - offsets[ordinal] > AM_SHORT_BITS
        return False  # conservative for the final arc of a state

    def lm_state_record(self, state: int) -> tuple[int, int]:
        return (
            self._lm_state_base + state * PACKED_STATE_BYTES,
            PACKED_STATE_BYTES,
        )

    def lm_arc_record(self, state: int, ordinal: int) -> tuple[int, int]:
        """Address of the ``ordinal``-th word arc (or the back-off arc).

        The lookup model fetches a back-off arc with ordinal == word count.
        """
        packed = self.packed_lm
        # Events arrive in original state ids; the layout stores the
        # renumbered order.
        new_state = packed.permutation[state]
        base_bits = packed.state_offsets[new_state]
        word_count = packed.word_arc_counts[new_state]
        stride = UNIGRAM_ARC_BITS if new_state == 0 else REGULAR_ARC_BITS
        if ordinal >= word_count:  # back-off arc: last record of the state
            bit = base_bits + word_count * stride
            nbytes = (BACKOFF_ARC_BITS + 7) // 8
        else:
            bit = base_bits + ordinal * stride
            nbytes = (stride + 7) // 8
        return self._lm_arc_base + bit // 8, nbytes


def _per_arc_bit_offsets(task: "AsrTask", packed: PackedAm) -> list[list[int]]:
    """Exact bit offset of every AM arc (variable-length records)."""
    from repro.compress.am_pack import TAG_NORMAL, _tag_for

    offsets: list[list[int]] = []
    bit = 0
    for state in task.am.fst.states():
        row = []
        for arc in task.am.fst.out_arcs(state):
            row.append(bit)
            tag = _tag_for(state, arc.nextstate, arc.olabel)
            bit += AM_LONG_BITS if tag == TAG_NORMAL else AM_SHORT_BITS
        offsets.append(row)
    assert bit == packed.bit_length
    return offsets


@dataclass
class ComposedLayout:
    """Addresses in the baseline's uncompressed composed WFST."""

    address_map: ComposedAddressMap

    @classmethod
    def build(cls, task: "AsrTask") -> "ComposedLayout":
        return cls(address_map=build_address_map(task.am, task.lm))

    @property
    def total_bytes(self) -> int:
        return self.address_map.model.total_bytes

    def state_record(self, am_state: int, lm_state: int) -> tuple[int, int]:
        return (
            self.address_map.state_address(am_state, lm_state),
            STATE_RECORD_BYTES,
        )

    def arc_record(
        self, am_state: int, lm_state: int, ordinal: int
    ) -> tuple[int, int]:
        return (
            self.address_map.arc_address(am_state, lm_state, ordinal),
            ARC_RECORD_BYTES,
        )
