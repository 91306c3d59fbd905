"""Decoder-to-simulator event tracing.

The functional decoders are instrumented with a narrow sink interface:
every state fetch, arc fetch, token write and offset-table access is
reported as it happens.  The accelerator simulators subscribe a sink
that converts events into memory addresses and drives the cache/DRAM
models; functional runs pass no sink and pay almost nothing.

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

    def on_olt_access(self, lm_state: int, word_id: int, hit: bool) -> None: ...

    def on_frame_end(self, frame: int, active_tokens: int) -> None: ...




class NullSink:
    """A sink that drops every event: attached, it makes a decode's
    lookups walk the lookup hardware's model, for that model's counters
    (``arc_probes``, ``olt_hits``, ``olt_misses``) alone."""

    def _drop(self, *event: object) -> None:
        pass

    on_state_fetch = on_arc_fetch = on_token_write = _drop
    on_token_hash_access = on_olt_access = on_frame_end = _drop
