"""Beam pruning.

Standard Viterbi beam search pruning: a hypothesis survives if its cost
is within ``beam`` of the best hypothesis in the same frame.  An
optional ``max_active`` cap (histogram pruning) bounds the number of
tokens expanded per frame regardless of the beam, which bounds the
accelerator's worst-case frame latency.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter

from repro.core.tokens import SoaTokenTable, TokenTable


@dataclass(frozen=True)
class BeamConfig:
    """Pruning parameters.

    Attributes:
        beam: Cost margin over the frame-best hypothesis.
        max_active: Hard cap on tokens expanded per frame (0 = no cap).
    """

    beam: float = 12.0
    max_active: int = 0

    def __post_init__(self) -> None:
        if self.beam <= 0:
            raise ValueError("beam must be positive")
        if self.max_active < 0:
            raise ValueError("max_active must be >= 0")


def prune_items(
    table: TokenTable | SoaTokenTable, config: BeamConfig
) -> tuple[list[tuple[int, float, int]], int]:
    """Select the tokens to expand this frame, as the scalar frame body
    reads them: ``(key, cost, lattice_node)`` with
    :func:`~repro.core.tokens.pack_key` keys.

    Returns:
        (survivors, pruned_count).
    """
    total = len(table)
    if total == 0:
        return [], 0
    survivors = table.survivor_items(table.best_cost + config.beam)
    if config.max_active and len(survivors) > config.max_active:
        survivors = heapq.nsmallest(
            config.max_active, survivors, key=itemgetter(1)
        )
    return survivors, total - len(survivors)
