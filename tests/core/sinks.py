"""Trace sinks the tests share: the lookup hardware's model behind a
sink that drops every other event, and one that records the model's
accesses."""

from __future__ import annotations

from repro.accel import LookupModel
from repro.core import LmWordArcs


class ModelSink:
    """A TraceSink that runs the lookup model over ``graph`` (a
    ``strategy`` OLT of ``table_entries``) and drops every event and
    every access the model makes."""

    def __init__(self, graph, strategy, table_entries=32 * 1024):
        self.model = LookupModel(
            LmWordArcs.from_graph(graph), self, strategy, table_entries
        )

    def on_lm_walk(self, lm_state, word_id, levels, pruned):
        self.model.on_lm_walk(lm_state, word_id, levels, pruned)

    def _drop(self, *event):
        pass

    on_expand = on_epsilon_arc = on_token_write = on_frame_end = _drop
    fetch_lm_state = fetch_lm_arc = access_olt = _drop


class RecordingSink(ModelSink):
    """A ModelSink keeping the lookup model's accesses, in order, as the
    LM fetch and OLT events they were first recorded as."""

    def __init__(self, graph, strategy, table_entries=32 * 1024):
        super().__init__(graph, strategy, table_entries)
        self.events: list[tuple] = []

    def fetch_lm_state(self, state):
        self.events.append(("state_fetch", "lm", state))

    def fetch_lm_arc(self, state, ordinal):
        self.events.append(("arc_fetch", "lm", state, ordinal))

    def access_olt(self, lm_state, word_id, hit):
        self.events.append(("olt", lm_state, word_id, hit))
