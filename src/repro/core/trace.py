"""Decoder-to-simulator event tracing.

The functional decoders are instrumented with a narrow sink interface:
every state fetch, arc fetch and token write is reported as it
happens, and each LM walk once it ends (``on_lm_walk``: where it
started, for which word, how many back-off levels it took and whether
it was pruned).  The accelerator simulators subscribe a sink that
converts events into memory addresses and drives the cache/DRAM
models — the UNFOLD sink replays each LM walk through its lookup
hardware's model (:mod:`repro.accel.lookup`) into OLT accesses and LM
fetches; functional runs pass no sink and pay almost nothing.

Graph ids distinguish the traffic classes Figure 11 separates (states,
arcs, tokens) and the two arc streams the accelerator caches separately
(AM arcs vs LM arcs).
"""

from __future__ import annotations

import enum
from typing import Protocol


class GraphSide(enum.Enum):
    """Which dataset a fetch touched."""

    AM = "am"
    LM = "lm"
    COMPOSED = "composed"  # the fully-composed baseline's single WFST


class TraceSink(Protocol):
    """Receiver for decoder memory events."""

    def on_state_fetch(self, side: GraphSide, state: int) -> None: ...

    def on_arc_fetch(self, side: GraphSide, state: int, ordinal: int) -> None: ...

    def on_token_write(self) -> None: ...

    def on_token_hash_access(self, am_state: int, lm_state: int) -> None: ...

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None: ...

    def on_frame_end(self, frame: int, active_tokens: int) -> None: ...
