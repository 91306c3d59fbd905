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
