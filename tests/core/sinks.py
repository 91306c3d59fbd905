"""Trace sinks the tests share: the lookup hardware's model behind a
sink that drops every other event, and one that records them."""

from __future__ import annotations

from repro.accel import LookupModel
from repro.core import LmWordArcs


class ModelSink:
    """A TraceSink that runs the lookup model over ``graph`` (a
    ``strategy`` OLT of ``table_entries``) and drops every event."""

    def __init__(self, graph, strategy, table_entries=32 * 1024):
        self.model = LookupModel(
            LmWordArcs.from_graph(graph), self, strategy, table_entries
        )

    def on_lm_walk(self, lm_state, word_id, levels, pruned):
        self.model.on_lm_walk(lm_state, word_id, levels, pruned)

    def _drop(self, *event):
        pass

    on_state_fetch = on_arc_fetch = on_token_write = _drop
    on_token_hash_access = on_olt_access = on_frame_end = _drop


class RecordingSink(ModelSink):
    """A ModelSink keeping the LM walk's events, in order."""

    def __init__(self, graph, strategy, table_entries=32 * 1024):
        super().__init__(graph, strategy, table_entries)
        self.events: list[tuple] = []

    def on_state_fetch(self, side, state):
        self.events.append(("state_fetch", side.value, state))

    def on_arc_fetch(self, side, state, ordinal):
        self.events.append(("arc_fetch", side.value, state, ordinal))

    def on_token_write(self):
        self.events.append(("token_write",))

    def on_token_hash_access(self, am_state, lm_state):
        self.events.append(("token_hash", am_state, lm_state))

    def on_olt_access(self, lm_state, word_id, hit):
        self.events.append(("olt", lm_state, word_id, hit))

    def on_frame_end(self, frame, active_tokens):
        self.events.append(("frame_end", frame, active_tokens))
