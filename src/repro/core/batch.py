"""The frame step: one segment of search state, one frame loop.

Every way of driving the on-the-fly decoder — an offline decode, a
streaming push, several sessions pushed in one engine call — advances
:class:`BatchSegment` state through :func:`advance_segment`, which picks
a regime per frame from the size of the segment's frontier: the scalar
reference body for small frontiers (UNFOLD's design point is a *small*
per-channel search state; a frame with a dozen live tokens costs less
walked token by token than the few dozen numpy dispatches of a
vectorized frame), run over the segment's consecutive small frames in
one call; and the numpy kernels for a large one.

Exactness is non-negotiable: both regimes leave bit-identical table
contents, lattice, stats and lookup state to the scalar reference
body, so no counter records the regime mix.  Every entry point steps
through here, so all make the same choice on the same frame.

Segments are independent: each owns its frontier, lattice, stats and
lookup, and nothing steps two of them together.  A kernel that fused
several segments' frontiers into one numpy call per frame (a CPU copy
of Braun et al.'s batched GPU decoder, arXiv:1910.10032) was measured
against per-segment steps and removed: a ~1 000-token frontier already
amortises its own dispatches (DESIGN.md, "Kernel-level fusion").
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.tokens import SoaTokenTable, TokenTable

if TYPE_CHECKING:
    from repro.core.composition import LmLookup
    from repro.core.decoder import DecoderStats, OnTheFlyDecoder
    from repro.core.lattice import WordLattice

__all__ = [
    "BatchSegment",
    "SCALAR_FRONTIER_MAX",
    "advance_segment",
]

#: Frontier size (tokens entering a frame) up to which a segment takes
#: the scalar frame body instead of the numpy kernels: below it the few
#: dozen fixed numpy dispatches of a vectorized frame cost more than
#: walking the tokens.  Read off a measured crossover curve
#: (``tools/frame_step_crossover.py``; table and reasoning in DESIGN.md,
#: "Frame-step regimes").  96 was the minimax of a curve that also had
#: fused regimes on it; on the scalar-vs-solo curve alone scalar now
#: wins up to ~100-128 tokens, so 96 sits just below the crossover.
#: Moving it changes no result and no counter.
SCALAR_FRONTIER_MAX = 96


class BatchSegment:
    """One utterance's (or session's) live search state.

    The frame step reads and writes exactly these fields; anything
    holding them — an offline decode, a streaming session — can be
    stepped.  ``table`` is a :class:`TokenTable` after a scalar frame
    and a :class:`SoaTokenTable` after a vectorized one; both regimes
    read either (``columns``/``survivor_items``/``best_cost``).
    """

    __slots__ = ("table", "lattice", "stats", "lookup", "frame")

    def __init__(
        self,
        table: TokenTable | SoaTokenTable,
        lookup: LmLookup,
        lattice: WordLattice,
        stats: DecoderStats,
        frame: int = 0,
    ) -> None:
        self.table = table
        self.lookup = lookup
        self.lattice = lattice
        self.stats = stats
        #: Index of the next frame this segment consumes (the lattice
        #: frame stamp of its epsilon-phase word arrivals).
        self.frame = frame


def advance_segment(
    decoder: OnTheFlyDecoder, seg: BatchSegment, scores: np.ndarray
) -> None:
    """Consume ``scores`` (float64 rows, at least ``num_senones`` wide)
    on ``seg``.

    The one frame loop behind offline decode, streaming push and
    multi-session push.  While the frontier entering a frame is at most
    :data:`SCALAR_FRONTIER_MAX` tokens (always, under a trace sink or a
    scalar config), the segment consumes its consecutive frames in one
    scalar run, which stops when the frontier outgrows the constant or
    the frames run out; a larger frontier takes one frame through the
    numpy kernels.  A decoder whose epsilon phase the kernels cannot
    batch (:meth:`~repro.core.decoder.OnTheFlyDecoder._epsilon_batchable`,
    asked when a frontier first outgrows the constant) runs every frame
    in the scalar body.  The regime depends on nothing but the
    segment's own frontier, so a segment takes the same regimes
    however its frames are chunked.
    ``seg.table`` is replaced by each next frontier and ``seg.frame``
    advances.
    """
    limit = SCALAR_FRONTIER_MAX if decoder._vectorized else math.inf
    at, end = 0, scores.shape[0]
    while at < end:
        if len(seg.table) <= limit:
            at += decoder._scalar_run(seg, scores[at:], limit)
        elif decoder._epsilon_batchable():
            _step_one(decoder, seg, scores[at])
            at += 1
        else:
            limit = math.inf


def _step_one(
    decoder: OnTheFlyDecoder, seg: BatchSegment, row: np.ndarray
) -> None:
    """One frame of ``seg`` through the numpy kernels."""
    phases = decoder._phase_seconds
    beam_config = decoder._beam_config
    stats = seg.stats
    mark = perf_counter() if phases is not None else 0.0
    table, survivors, expansions, pruned = decoder._expand_frame_vectorized(
        seg.table, row, beam_config
    )
    if phases is not None:
        phases["expand"] += perf_counter() - mark
    stats.beam_pruned += pruned
    stats.am_state_fetches += survivors
    stats.expansions += expansions
    mark = perf_counter() if phases is not None else 0.0
    decoder._epsilon_phase_batched(
        table, seg.frame, seg.lattice, stats, beam_config, seg.lookup
    )
    if phases is not None:
        phases["epsilon"] += perf_counter() - mark
    # The kernels never run under a trace sink: no frame-end event.
    stats.tokens_created += table.inserts
    stats.tokens_recombined += table.recombinations
    stats.active_history.append(len(table))
    seg.table = table
    seg.frame += 1
