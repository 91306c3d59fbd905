"""Trace sinks: decoder events -> cache/DRAM activity.

One sink per simulated platform.  Every decoder event is translated to
a byte address in the platform's dataset layout (an LM walk first
through UNFOLD's lookup hardware model) and driven through the
platform's caches; misses become DRAM line fills classified by traffic
type (states / arcs / tokens), which is exactly the accounting Figures
9-11 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.cache import Cache, WriteBuffer
from repro.accel.config import AcceleratorConfig
from repro.accel.dram import DramModel, Traffic
from repro.accel.hashmodel import HashTableModel, OverflowBuffer
from repro.accel.layout import ComposedLayout, OnTheFlyLayout
from repro.accel.lookup import LookupModel
from repro.core.arcs import LmWordArcs
from repro.core.composition import LookupStats
from repro.core.trace import GraphSide
from repro.lm.graph import LmGraph


@dataclass
class SramActivity:
    """Access counts for the non-cache SRAM structures."""

    hash_accesses: int = 0
    olt_accesses: int = 0
    acoustic_buffer_accesses: int = 0


class _SinkCore:
    """What both platforms' memory systems share: the state cache, the
    token path (token cache, write buffer, hash tables and their
    overflow buffer), DRAM and the SRAM counters.  A platform adds its
    arc caches and addresses its own state and arc records."""

    def __init__(
        self, config: AcceleratorConfig, layout: OnTheFlyLayout | ComposedLayout
    ) -> None:
        self.config = config
        self.layout = layout
        self.state_cache = Cache(config.cache_config("state"))
        self.token_cache = Cache(config.cache_config("token"))
        self.write_buffer = WriteBuffer(line_bytes=config.line_bytes)
        self.dram = DramModel()
        self.sram = SramActivity()
        self.hash_model = HashTableModel(config.hash_entries)
        self.overflow = OverflowBuffer(line_bytes=config.line_bytes)
        self._token_cursor = 0

    # -- TraceSink interface: the token path ---------------------------------

    def on_token_write(self) -> None:
        nbytes = self.config.lattice_record_bytes
        addr = self._token_cursor
        self._token_cursor += nbytes
        self.token_cache.access(addr, nbytes)
        flushed = self.write_buffer.write(addr, nbytes)
        if flushed:
            self.dram.write_lines(Traffic.TOKENS, flushed, address=addr)

    def on_token_hash_access(self, am_state: int, lm_state: int) -> None:
        self.sram.hash_accesses += 1
        if not self.hash_model.insert():
            lines = self.overflow.spill(1)
            if lines:
                self.dram.write_lines(Traffic.TOKENS, lines)

    def on_frame_end(self, frame: int, active_tokens: int) -> None:
        self.sram.acoustic_buffer_accesses += active_tokens
        self.hash_model.end_frame()

    # -- reporting -----------------------------------------------------------

    def finish_utterance(self, lookup: LookupStats) -> None:
        """Flush buffered token writes; UNFOLD also fills the
        utterance's ``lookup`` with its lookup hardware's counts."""
        flushed = self.write_buffer.flush()
        if flushed:
            self.dram.write_lines(Traffic.TOKENS, flushed)


class UnfoldSink(_SinkCore):
    """UNFOLD's memory system (Figure 4): four caches + OLT + hashes,
    with the LM lookup hardware's model over ``lm``."""

    def __init__(
        self, config: AcceleratorConfig, layout: OnTheFlyLayout, lm: LmGraph
    ) -> None:
        if not config.has_lm_cache:
            raise ValueError("UNFOLD requires a dedicated LM arc cache")
        super().__init__(config, layout)
        self.am_arc_cache = Cache(config.cache_config("am_arc"))
        self.lm_arc_cache = Cache(config.cache_config("lm_arc"))
        self.lookup_model = LookupModel(
            LmWordArcs.from_graph(lm),
            self,
            config.lookup_strategy,
            config.offset_table_entries,
        )

    def on_state_fetch(self, side: GraphSide, state: int) -> None:
        if side is GraphSide.AM:
            addr, size = self.layout.am_state_record(state)
        else:
            addr, size = self.layout.lm_state_record(state)
        misses = self.state_cache.access(addr, size)
        if misses:
            self.dram.read_lines(Traffic.STATES, misses, address=addr)

    def on_arc_fetch(self, side: GraphSide, state: int, ordinal: int) -> None:
        if side is GraphSide.AM:
            addr, size = self.layout.am_arc_record(state, ordinal)
            misses = self.am_arc_cache.access(addr, size)
        else:
            addr, size = self.layout.lm_arc_record(state, ordinal)
            misses = self.lm_arc_cache.access(addr, size)
        if misses:
            self.dram.read_lines(Traffic.ARCS, misses, address=addr)

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None:
        self.lookup_model.on_lm_walk(lm_state, word_id, levels, pruned)

    def on_olt_access(self, lm_state: int, word_id: int, hit: bool) -> None:
        self.sram.olt_accesses += 1

    def finish_utterance(self, lookup: LookupStats) -> None:
        super().finish_utterance(lookup)
        self.lookup_model.settle(lookup)

    def caches(self) -> dict[str, Cache]:
        return {
            "state_cache": self.state_cache,
            "am_arc_cache": self.am_arc_cache,
            "lm_arc_cache": self.lm_arc_cache,
            "token_cache": self.token_cache,
        }


class ComposedSink(_SinkCore):
    """The baseline's memory system: state + unified arc + token caches."""

    def __init__(
        self,
        config: AcceleratorConfig,
        layout: ComposedLayout,
        num_lm_states: int,
    ) -> None:
        super().__init__(config, layout)
        self.num_lm_states = num_lm_states
        self.arc_cache = Cache(config.cache_config("am_arc"))

    def on_state_fetch(self, side: GraphSide, state: int) -> None:
        addr, size = self.layout.state_record(state, self.num_lm_states)
        misses = self.state_cache.access(addr, size)
        if misses:
            self.dram.read_lines(Traffic.STATES, misses, address=addr)

    def on_arc_fetch(self, side: GraphSide, state: int, ordinal: int) -> None:
        addr, size = self.layout.arc_record(state, ordinal, self.num_lm_states)
        misses = self.arc_cache.access(addr, size)
        if misses:
            self.dram.read_lines(Traffic.ARCS, misses, address=addr)

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None:
        raise AssertionError("the fully-composed baseline walks no LM")

    def caches(self) -> dict[str, Cache]:
        return {
            "state_cache": self.state_cache,
            "arc_cache": self.arc_cache,
            "token_cache": self.token_cache,
        }
