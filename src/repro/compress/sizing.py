"""Dataset sizing: the four configurations of Figure 8 / Tables 1-2.

For one ASR task this computes, in bytes:

* ``Fully-Composed``: the offline-composed WFST, uncompressed;
* ``Fully-Composed+Comp``: the same graph under Price-style compression;
* ``On-the-fly``: the separate AM and LM WFSTs, uncompressed;
* ``On-the-fly+Comp``: the separate models under Section 3.4 packing —
  UNFOLD's configuration.

AM/LM numbers come from real serializers and real bit-packers; the
composed graph from the structural model validated against materialized
composition on small tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.compress.am_pack import pack_am
from repro.compress.composed_model import build_composed_model
from repro.compress.composed_pack import pack_composed_size
from repro.compress.lm_pack import pack_lm
from repro.compress.state_pack import pack_states
from repro.wfst.io import uncompressed_size_bytes

if TYPE_CHECKING:
    from repro.asr.task import AsrTask


@dataclass(frozen=True)
class DatasetSizing:
    """All four Figure 8 bars for one task, in bytes."""

    task_name: str
    am_bytes: int
    lm_bytes: int
    composed_bytes: int
    composed_comp_bytes: int
    am_comp_bytes: int
    lm_comp_bytes: int

    @property
    def onthefly_bytes(self) -> int:
        """Table 1's AM+LM column: the uncompressed on-the-fly dataset."""
        return self.am_bytes + self.lm_bytes

    @property
    def onthefly_comp_bytes(self) -> int:
        """Table 2's UNFOLD row: compressed AM + LM."""
        return self.am_comp_bytes + self.lm_comp_bytes

    @property
    def unfold_reduction(self) -> float:
        """Figure 8's headline: Fully-Composed over On-the-fly+Comp (31x avg)."""
        return self.composed_bytes / self.onthefly_comp_bytes

    @property
    def compression_vs_price(self) -> float:
        """Table 2's ratio: compressed composed over compressed on-the-fly (8.8x avg)."""
        return self.composed_comp_bytes / self.onthefly_comp_bytes

    @property
    def composition_blowup(self) -> float:
        """Table 1's ratio: composed over AM+LM."""
        return self.composed_bytes / self.onthefly_bytes

    def as_row(self) -> dict[str, float]:
        mb = 1.0 / 2**20
        return {
            "task": self.task_name,
            "fully_composed_mb": self.composed_bytes * mb,
            "fully_composed_comp_mb": self.composed_comp_bytes * mb,
            "onthefly_mb": self.onthefly_bytes * mb,
            "onthefly_comp_mb": self.onthefly_comp_bytes * mb,
        }


@dataclass(frozen=True)
class DecodeStateSizing:
    """Transient per-decoder state UNFOLD adds next to the stored dataset.

    Not part of the on-disk WFSTs, but real memory at decode time: the
    Offset Lookup Table (Section 3.5) and the LM expansion cache (the
    software analogue of the paper's LM arc cache, Section 3.3).  The
    expansion-cache number is the worst-case resident bound — capacity
    times the deepest row — matching ``LmExpansionCache.size_bytes()``
    when full of deepest-chain rows.
    """

    olt_bytes: int
    expansion_cache_bytes: int


def measure_decode_state(
    lm,
    offset_table_entries: int = 32 * 1024,
    expansion_cache_states: int = 1024,
) -> DecodeStateSizing:
    """Size the decode-time lookup state for one LM graph."""
    from repro.core.composition import expansion_row_bytes_bound

    max_chain = 1
    for state in lm.fst.states():
        length = 1
        current = state
        while True:
            backoff = lm.backoff_arc(current)
            if backoff is None:
                break
            current = backoff.nextstate
            length += 1
            if length > lm.fst.num_states:
                raise ValueError("back-off arcs form a cycle")
        max_chain = max(max_chain, length)
    label_space = int(lm.backoff_label) + 1
    # The cache holds at most one row per LM state, so the residency
    # bound is min(capacity, states) deepest-chain rows.
    resident = min(expansion_cache_states, lm.fst.num_states)
    return DecodeStateSizing(
        # Valid bit + 24-bit tag + 23-bit offset per entry (Section 3.5).
        olt_bytes=offset_table_entries * 6,
        expansion_cache_bytes=resident
        * expansion_row_bytes_bound(label_space, max_chain),
    )


def measure_dataset_sizing(task: "AsrTask") -> DatasetSizing:
    """Compute every Figure 8 configuration for one task."""
    am_bytes = uncompressed_size_bytes(task.am.fst)
    lm_bytes = uncompressed_size_bytes(task.lm.fst)

    packed_am = pack_am(task.am.fst)
    am_states = pack_states(
        [o // 1 for o in packed_am.arc_offsets], packed_am.arc_counts
    )
    am_comp = packed_am.size_bytes + am_states.size_bytes

    packed_lm = pack_lm(task.lm)
    lm_states = pack_states(packed_lm.state_offsets, packed_lm.word_arc_counts)
    lm_comp = packed_lm.size_bytes + lm_states.size_bytes

    composed = build_composed_model(task.am, task.lm)
    composed_comp = pack_composed_size(composed)

    return DatasetSizing(
        task_name=task.name,
        am_bytes=am_bytes,
        lm_bytes=lm_bytes,
        composed_bytes=composed.total_bytes,
        composed_comp_bytes=composed_comp.total_bytes,
        am_comp_bytes=am_comp,
        lm_comp_bytes=lm_comp,
    )
