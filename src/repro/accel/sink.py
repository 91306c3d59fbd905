"""Trace sinks: what the search did -> cache/DRAM activity.

One sink per simulated platform.  The search reports (AM state, LM
state) pairs (:mod:`repro.core.trace`); the sink addresses them in its
platform's dataset layout and drives the platform's caches.  An
expansion is the token's state fetch, its token-hash access and one
fetch per emitting arc of its AM state (the ordinals from the sink's
own per-state lists); an epsilon arc is one arc fetch; on UNFOLD an LM
walk goes through the lookup hardware's model
(:mod:`repro.accel.lookup`), which calls back into the sink's OLT
accesses and LM fetches.  Misses become DRAM line fills classified by
traffic type (states / arcs / tokens), which is exactly the accounting
Figures 9-11 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.accel.cache import Cache, WriteBuffer
from repro.accel.config import AcceleratorConfig
from repro.accel.dram import DramModel, Traffic
from repro.accel.hashmodel import HashTableModel, OverflowBuffer
from repro.accel.layout import ComposedLayout, OnTheFlyLayout
from repro.accel.lookup import LookupCounts, LookupModel
from repro.core.arcs import EmittingArcs, LmWordArcs

if TYPE_CHECKING:
    from repro.asr.task import AsrTask


@dataclass
class SramActivity:
    """Access counts for the non-cache SRAM structures."""

    hash_accesses: int = 0
    olt_accesses: int = 0
    acoustic_buffer_accesses: int = 0


class _SinkCore:
    """What both platforms' memory systems share: the state cache, the
    token path (token cache, write buffer, hash tables and their
    overflow buffer), DRAM, the SRAM counters and the expansion's
    fetches.  A platform adds its arc caches and addresses its own state
    and arc records (``_fetch_state``, ``_fetch_arc``)."""

    def __init__(
        self,
        config: AcceleratorConfig,
        layout: OnTheFlyLayout | ComposedLayout,
        task: "AsrTask",
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
        arcs = EmittingArcs.from_fst(task.am.fst)
        offsets = arcs.offsets.tolist()
        ordinals = arcs.ordinal.tolist()
        #: Per AM state, its emitting arcs' ordinals: what an expansion
        #: fetches, in arc order.
        self._emitting: list[list[int]] = [
            ordinals[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])
        ]

    def _read(self, cache: Cache, traffic: Traffic, addr: int, size: int) -> None:
        """A state fetch's read; the arc fetches, the per-arc hot path,
        inline it."""
        misses = cache.access(addr, size)
        if misses:
            self.dram.read_lines(traffic, misses, address=addr)

    # -- TraceSink interface -------------------------------------------------

    def on_expand(self, am_state: int, lm_state: int) -> None:
        self._fetch_state(am_state, lm_state)
        self.sram.hash_accesses += 1
        if not self.hash_model.insert():
            lines = self.overflow.spill(1)
            if lines:
                self.dram.write_lines(Traffic.TOKENS, lines)
        fetch_arc = self._fetch_arc
        for ordinal in self._emitting[am_state]:
            fetch_arc(am_state, lm_state, ordinal)

    def on_epsilon_arc(self, am_state: int, lm_state: int, ordinal: int) -> None:
        self._fetch_arc(am_state, lm_state, ordinal)

    def on_token_write(self) -> None:
        nbytes = self.config.lattice_record_bytes
        addr = self._token_cursor
        self._token_cursor += nbytes
        self.token_cache.access(addr, nbytes)
        flushed = self.write_buffer.write(addr, nbytes)
        if flushed:
            self.dram.write_lines(Traffic.TOKENS, flushed, address=addr)

    def on_frame_end(self, frame: int, active_tokens: int) -> None:
        self.sram.acoustic_buffer_accesses += active_tokens
        self.hash_model.end_frame()

    # -- reporting -----------------------------------------------------------

    def finish_utterance(self) -> LookupCounts:
        """Flush buffered token writes, and return what the lookup
        hardware did during the utterance (nothing, on a platform
        without one)."""
        flushed = self.write_buffer.flush()
        if flushed:
            self.dram.write_lines(Traffic.TOKENS, flushed)
        return LookupCounts()


class UnfoldSink(_SinkCore):
    """UNFOLD's memory system (Figure 4): four caches + OLT + hashes,
    with the LM lookup hardware's model over the task's LM."""

    def __init__(
        self, config: AcceleratorConfig, layout: OnTheFlyLayout, task: "AsrTask"
    ) -> None:
        if not config.has_lm_cache:
            raise ValueError("UNFOLD requires a dedicated LM arc cache")
        super().__init__(config, layout, task)
        self.am_arc_cache = Cache(config.cache_config("am_arc"))
        self.lm_arc_cache = Cache(config.cache_config("lm_arc"))
        self.lookup_model = LookupModel(
            LmWordArcs.from_graph(task.lm),
            self,
            config.lookup_strategy,
            config.offset_table_entries,
        )

    def _fetch_state(self, am_state: int, lm_state: int) -> None:
        addr, size = self.layout.am_state_record(am_state)
        self._read(self.state_cache, Traffic.STATES, addr, size)

    def _fetch_arc(self, am_state: int, lm_state: int, ordinal: int) -> None:
        addr, size = self.layout.am_arc_record(am_state, ordinal)
        misses = self.am_arc_cache.access(addr, size)
        if misses:
            self.dram.read_lines(Traffic.ARCS, misses, address=addr)

    def on_lm_walk(
        self, lm_state: int, word_id: int, levels: int, pruned: bool
    ) -> None:
        self.lookup_model.on_lm_walk(lm_state, word_id, levels, pruned)

    # -- the lookup model's accesses -----------------------------------------

    def fetch_lm_state(self, state: int) -> None:
        addr, size = self.layout.lm_state_record(state)
        self._read(self.state_cache, Traffic.STATES, addr, size)

    def fetch_lm_arc(self, state: int, ordinal: int) -> None:
        addr, size = self.layout.lm_arc_record(state, ordinal)
        misses = self.lm_arc_cache.access(addr, size)
        if misses:
            self.dram.read_lines(Traffic.ARCS, misses, address=addr)

    def access_olt(self, lm_state: int, word_id: int, hit: bool) -> None:
        self.sram.olt_accesses += 1

    def finish_utterance(self) -> LookupCounts:
        super().finish_utterance()
        model = self.lookup_model
        counts, model.stats = model.stats, LookupCounts()
        return counts

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
        self, config: AcceleratorConfig, layout: ComposedLayout, task: "AsrTask"
    ) -> None:
        super().__init__(config, layout, task)
        self.arc_cache = Cache(config.cache_config("am_arc"))

    def _fetch_state(self, am_state: int, lm_state: int) -> None:
        addr, size = self.layout.state_record(am_state, lm_state)
        self._read(self.state_cache, Traffic.STATES, addr, size)

    def _fetch_arc(self, am_state: int, lm_state: int, ordinal: int) -> None:
        addr, size = self.layout.arc_record(am_state, lm_state, ordinal)
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
