"""Decoder-to-simulator event tracing.

The functional decoders report what the search did, in its own terms
— (AM state, LM state) pairs — and nothing about where the data lives:
a surviving token's expansion (``on_expand``), each epsilon arc walked
(``on_epsilon_arc``, by its ordinal in the AM state), each LM walk once
it ends (``on_lm_walk``: its start, word, back-off levels and whether
it was pruned), each word-lattice write and each frame's end.  The
accelerator simulators subscribe a sink that addresses these in its
platform's dataset and drives its caches (:mod:`repro.accel.sink`);
functional runs pass no sink and pay almost nothing.
"""

from __future__ import annotations

from typing import Protocol


class TraceSink(Protocol):
    """Receiver for what the search did."""

    def on_expand(self, am_state: int, lm_state: int) -> None: ...

    def on_epsilon_arc(self, am_state: int, lm_state: int, ordinal: int) -> None: ...

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None: ...

    def on_token_write(self) -> None: ...

    def on_frame_end(self, frame: int, active_tokens: int) -> None: ...
