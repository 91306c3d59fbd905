"""The frame step, and lockstep cross-utterance batched Viterbi decoding.

Every way of driving the on-the-fly decoder — an offline decode, a
streaming push, several sessions pushed together, the lockstep
:class:`BatchDecoder` — advances :class:`BatchSegment` state through
:func:`advance_segments`, which picks a regime per segment and per
frame from the size of the segment's frontier: the scalar reference
body for small frontiers (UNFOLD's design point is a *small*
per-channel search state; a frame with a dozen live tokens costs less
walked token by token than the few dozen numpy dispatches of a
vectorized frame), run over a segment's consecutive small frames in
one call; the solo numpy kernels for one large segment; and one
*fused* kernel call for several (:func:`step_segments`).  The fused
regime is the software analogue of Braun et
al.'s GPU batched decoder (arXiv:1910.10032) and of the multi-channel
sharing UNFOLD's on-the-fly design enables (Section 3): the segments'
active-token SoA columns are concatenated with a segment-id column and
the emitting expansion, Viterbi recombination and the epsilon/back-off
phase run as single numpy calls over the concatenation, instead of B
small-array dispatch overheads per frame.

Exactness is non-negotiable: every regime must leave, per segment,
bit-identical state to the scalar reference body.  The construction
that makes the fused kernel do so:

* Fused recombination keys are ``seg * K + am * num_lm + lm`` with
  ``K = num_am * num_lm``, so segments occupy disjoint key bands and a
  single :func:`~repro.core.arcs.plan_recombination` call replays every
  segment's sequential insert order at once.  Candidates are laid out
  segment-major in solo arrival order, so the plan's first-arrival
  winner order, sorted keys and slots all split back into per-segment
  slices (the per-segment views are handed straight to ``bulk_fill``).
* Beam thresholds are per-segment (each table's own ``best_cost``);
  the fused prune masks against ``thr[seg_ids]``.
* LM resolution stays per-segment: each segment owns a *forked*
  :class:`~repro.core.composition.LmLookup` (fresh OLT + expansion
  cache over the shared graph arrays), so its cache evolution — and
  therefore every lookup counter — matches a solo cold decode exactly.
* Ragged lengths retire finished segments mid-batch: a retired
  segment simply stops appearing in the fused arrays.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.arcs import plan_recombination, stable_cost_order
from repro.core.tokens import SoaTokenTable, TokenTable
from repro.wfst.fst import EPSILON

if TYPE_CHECKING:
    from repro.core.composition import LmLookup
    from repro.core.decoder import DecodeResult, DecoderStats, OnTheFlyDecoder
    from repro.core.lattice import WordLattice

__all__ = [
    "BatchDecoder",
    "BatchSegment",
    "SCALAR_FRONTIER_MAX",
    "advance_segments",
    "lockstep_supported",
    "step_segments",
]

#: Frontier size (tokens entering a frame) up to which a segment takes
#: the scalar frame body instead of the numpy kernels: below it the few
#: dozen fixed numpy dispatches of a vectorized frame cost more than
#: walking the tokens.  Read off a measured crossover curve
#: (``tools/frame_step_crossover.py``; table and reasoning in DESIGN.md,
#: "Frame-step regimes"): on the curve that set it scalar beat the solo
#: kernels up to ~130 tokens (a 2-wide fusion up to ~190) and lost to
#: the 8-wide fused kernel from ~30; 96 minimized the worst per-frame
#: loss across those widths.  The rerun after the epsilon phase left
#: numpy puts the solo crossover at ~80 and reads 64 and 96 as a tie.
SCALAR_FRONTIER_MAX = 96


class BatchSegment:
    """One utterance's (or session's) live search state.

    The frame step reads and writes exactly these fields; anything
    holding them — an offline decode, the :class:`BatchDecoder`, a
    streaming session — can be stepped.  ``table`` is a
    :class:`TokenTable` after a scalar frame and a
    :class:`SoaTokenTable` after a vectorized one; both regimes read
    either (``columns``/``survivor_items``/``best_cost``).
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


def lockstep_supported(decoder: OnTheFlyDecoder) -> bool:
    """Whether the fused kernel preserves ``decoder``'s solo semantics.

    The gates of the two fast paths it fuses: the vectorized emitting
    expansion (no trace sink, pure-emitting AM) and the batched epsilon
    phase (single-level epsilon graph, non-negative weights).  Other
    decoders still step through :func:`step_segments`, one segment at a
    time.
    """
    return decoder._vectorized and decoder._epsilon_batchable()


def advance_segments(
    decoder: OnTheFlyDecoder,
    segments: list[BatchSegment],
    matrices: list[np.ndarray],
) -> int:
    """Consume ``matrices[i]`` (float64 score rows) on ``segments[i]``.

    The one frame loop behind offline decode, streaming push, fused
    multi-session push and the lockstep batch decoder.  Each round,
    every segment whose frontier is at most :data:`SCALAR_FRONTIER_MAX`
    tokens consumes its consecutive frames in one scalar run, which
    stops when the frontier outgrows the constant or the frames run
    out; the segments left holding frames are then all large, and they
    advance one frame together through :func:`step_segments` (fused
    when there are two or more).  Ragged lengths retire early.

    Each segment sees the same frames in the same order and takes the
    same regime on each of them as it would stepped frame by frame;
    only the interleaving *across* segments differs, and nothing can
    observe it — every segment owns its lookup fork, lattice and stats
    (callers hand several segments in only when their lookups are
    distinct).  Returns the longest matrix's frame count.
    """
    lengths = [m.shape[0] for m in matrices]
    limit = SCALAR_FRONTIER_MAX if decoder._vectorized else math.inf
    run = decoder._scalar_run
    done = [0] * len(segments)
    while True:
        large = []
        for i, seg in enumerate(segments):
            at, end = done[i], lengths[i]
            if at < end and len(seg.table) <= limit:
                at += run(seg, matrices[i][at:], limit)
                done[i] = at
            if at < end:
                large.append(i)
        if not large:
            return max(lengths, default=0)
        step_segments(
            decoder,
            [segments[i] for i in large],
            [matrices[i][done[i]] for i in large],
        )
        for i in large:
            done[i] += 1


def step_segments(
    decoder: OnTheFlyDecoder,
    segments: list[BatchSegment],
    rows: list[np.ndarray] | np.ndarray,
) -> None:
    """Advance every segment one frame, each in the regime it can use.

    ``rows[i]`` is segment ``i``'s acoustic score row for its current
    frame (float64, at least ``num_senones`` wide).  The regime is
    picked per segment and per frame from the one thing the step can
    observe, the size of the segment's own frontier: at or below
    :data:`SCALAR_FRONTIER_MAX` tokens (always, under a trace sink or a
    scalar config) the scalar reference body, as a one-frame run; above
    it the numpy kernels — fused across the large segments when the
    decoder allows (:func:`lockstep_supported`), solo otherwise.  Every
    entry point steps through here or through the runs of
    :func:`advance_segments`, which apply the same rule, so a segment
    takes the same regimes — and reports the same counters, expansion
    cache included — however it is driven.  All regimes leave
    bit-identical table contents, lattice, stats and lookup state;
    ``seg.table`` is replaced by the next frontier and ``seg.frame``
    advances.
    """
    limit = SCALAR_FRONTIER_MAX if decoder._vectorized else math.inf
    large = []
    for i, seg in enumerate(segments):
        if len(seg.table) > limit:
            large.append(i)
        else:
            _step_one(decoder, seg, rows[i], scalar=True)
    if len(large) > 1 and lockstep_supported(decoder):
        _step_fused(
            decoder,
            [segments[i] for i in large],
            [rows[i] for i in large],
        )
    else:
        for i in large:
            _step_one(decoder, segments[i], rows[i], scalar=False)


def _begin_epsilon(
    seg: BatchSegment, num_survivors: int, expansions: int, pruned: int
) -> tuple[int, int, int, int, int]:
    """Account a frame's emitting expansion; marks for :func:`_end_frame`."""
    stats = seg.stats
    stats.beam_pruned += pruned
    stats.am_state_fetches += num_survivors
    stats.am_arc_fetches += expansions
    stats.expansions += expansions
    return (
        num_survivors,
        expansions,
        stats.expansions,
        seg.lookup.stats.arc_probes,
        stats.token_writes,
    )


def _end_frame(
    seg: BatchSegment,
    next_table: TokenTable | SoaTokenTable,
    marks: tuple[int, int, int, int, int],
) -> None:
    """Account a finished kernel frame and install its frontier (the
    kernels never run under a trace sink: no frame-end event)."""
    num_survivors, expansions, exp_before, probes_before, writes_before = marks
    stats = seg.stats
    stats.frame_work.append(
        (
            num_survivors,
            expansions + (stats.expansions - exp_before),
            seg.lookup.stats.arc_probes - probes_before,
            stats.token_writes - writes_before,
        )
    )
    stats.tokens_created += next_table.inserts
    stats.tokens_recombined += next_table.recombinations
    stats.active_history.append(len(next_table))
    seg.table = next_table
    seg.frame += 1


def _step_one(
    decoder: OnTheFlyDecoder,
    seg: BatchSegment,
    row: np.ndarray,
    scalar: bool,
) -> None:
    """One segment's frame: the scalar reference body (a one-frame run)
    or the solo kernels."""
    if scalar:
        decoder._scalar_run(seg, (row,))
        return
    phases = decoder._phase_seconds
    beam_config = decoder._beam_config
    mark = perf_counter() if phases is not None else 0.0
    next_table, num_survivors, expansions, pruned = (
        decoder._expand_frame_vectorized(seg.table, row, beam_config)
    )
    if phases is not None:
        phases["expand"] += perf_counter() - mark
    marks = _begin_epsilon(seg, num_survivors, expansions, pruned)
    mark = perf_counter() if phases is not None else 0.0
    epsilon_phase = (
        decoder._epsilon_phase_batched
        if decoder._epsilon_batchable()
        else decoder._epsilon_phase
    )
    epsilon_phase(
        next_table, seg.frame, seg.lattice, seg.stats, beam_config,
        seg.lookup,
    )
    if phases is not None:
        phases["epsilon"] += perf_counter() - mark
    _end_frame(seg, next_table, marks)


def _step_fused(
    decoder: OnTheFlyDecoder,
    segments: list[BatchSegment],
    rows: list[np.ndarray],
) -> None:
    """Two or more large segments through one fused kernel call."""
    n = len(segments)
    config = decoder.config
    beam = config.beam
    max_active = config.max_active
    num_lm = decoder._num_lm
    num_am = decoder.am.fst.num_states
    seg_span = np.int64(num_am) * np.int64(num_lm)
    num_senones = decoder.am.num_senones
    arcs = decoder._arcs
    scale = config.acoustic_scale

    # -- fused frontier (segment-major, solo order within segments) ---
    cols = [seg.table.columns() for seg in segments]
    counts = np.array([c[0].shape[0] for c in cols], dtype=np.int64)
    am_f = np.concatenate([c[0] for c in cols])
    lm_f = np.concatenate([c[1] for c in cols])
    cost_f = np.concatenate([c[2] for c in cols])
    node_f = np.concatenate([c[3] for c in cols])
    seg_ids = np.repeat(np.arange(n, dtype=np.int64), counts)

    # -- fused beam prune (per-segment thresholds) ---------------------
    thr = np.array([seg.table.best_cost for seg in segments]) + beam
    keep = np.flatnonzero(cost_f <= thr[seg_ids])
    kept_counts = np.bincount(seg_ids[keep], minlength=n)
    pruned_counts = counts - kept_counts
    if max_active and bool(np.any(kept_counts > max_active)):
        # Capped segments keep their max_active best in stable cost
        # order — exactly the solo truncation (survivor order matters:
        # it is the candidate arrival order recombination replays).
        col_off = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        bounds = np.searchsorted(keep, col_off)
        parts = []
        for i in range(n):
            part = keep[bounds[i] : bounds[i + 1]]
            if part.shape[0] > max_active:
                part = part[stable_cost_order(cost_f[part])[:max_active]]
                pruned_counts[i] = counts[i] - max_active
                kept_counts[i] = max_active
            parts.append(part)
        keep = np.concatenate(parts)

    # -- fused emitting expansion --------------------------------------
    token_index, flat = arcs.gather(am_f[keep])
    num_cand = int(flat.shape[0])
    plan = None
    if num_cand:
        cand_src = keep[token_index]
        seg_cand = seg_ids[cand_src]
        cand_counts = np.bincount(seg_cand, minlength=n)
        rows2d = np.stack([r[:num_senones] for r in rows])
        cand_cost = (
            cost_f[cand_src]
            + arcs.weight[flat]
            - scale * rows2d[seg_cand, arcs.score_index[flat]]
        )
        cand_next = arcs.nextstate[flat]
        cand_lm = lm_f[cand_src]
        keys = (
            seg_cand * seg_span
            + cand_next * np.int64(num_lm)
            + cand_lm
        )
        plan = plan_recombination(keys, cand_cost)
        winners = plan.winners
        win_next = cand_next[winners]
        win_lm = cand_lm[winners]
        win_cost = cand_cost[winners]
        win_node = node_f[cand_src[winners]]
        # Winners/sorted keys/slots are segment-major (disjoint key
        # bands + segment-major arrival order), so each segment's share
        # is a slice.
        win_off = np.searchsorted(seg_cand[winners], np.arange(n + 1))
        key_off = np.searchsorted(
            plan.sorted_keys, np.arange(n + 1) * seg_span
        )
        imp_counts = np.bincount(
            seg_cand[plan.improved_sources], minlength=n
        )

    next_tables: list[SoaTokenTable] = []
    for i in range(n):
        table = SoaTokenTable(num_lm)
        if plan is not None:
            wa, wb = int(win_off[i]), int(win_off[i + 1])
            if wb > wa:
                ka, kb = int(key_off[i]), int(key_off[i + 1])
                table.bulk_fill(
                    win_next[wa:wb],
                    win_lm[wa:wb],
                    win_cost[wa:wb],
                    win_node[wa:wb],
                    plan.sorted_keys[ka:kb] - np.int64(i) * seg_span,
                    plan.slots[ka:kb] - wa,
                    int(imp_counts[i]) - (wb - wa),
                    int(cand_counts[i]) - int(imp_counts[i]),
                )
        next_tables.append(table)

    marks = [
        _begin_epsilon(
            seg,
            int(kept_counts[i]),
            int(cand_counts[i]) if num_cand else 0,
            int(pruned_counts[i]),
        )
        for i, seg in enumerate(segments)
    ]
    _epsilon_fused(decoder, segments, next_tables)
    for seg, table, seg_marks in zip(segments, next_tables, marks):
        _end_frame(seg, table, seg_marks)


def _epsilon_fused(
    decoder: OnTheFlyDecoder,
    segments: list[BatchSegment],
    tables: list[SoaTokenTable],
) -> None:
    """The batched epsilon phase, fused across segments.

    The numpy work — seed selection, threshold prune, CSR gather, cost
    arithmetic, slot hints — runs once over the concatenation; the LM
    resolution and the commit loop run per segment, against the
    segment's own lookup, lattice and frame index (resolution *must*
    stay per-segment: each fork's OLT/expansion-cache evolution is what
    makes its counters match a solo decode).  Word items reach
    ``resolve_batch`` in the same order as the solo phase's call, so
    every counter lands identically.
    """
    n = len(segments)
    eps = decoder._eps_arcs
    flags = decoder._epsilon_flags
    num_lm = decoder._num_lm
    beam = decoder.config.beam

    cols = [t.columns() for t in tables]
    counts = np.array([c[0].shape[0] for c in cols], dtype=np.int64)
    am_f = np.concatenate([c[0] for c in cols])
    if am_f.shape[0] == 0:
        return
    lm_f = np.concatenate([c[1] for c in cols])
    cost_f = np.concatenate([c[2] for c in cols])
    node_f = np.concatenate([c[3] for c in cols])
    seg_ids = np.repeat(np.arange(n, dtype=np.int64), counts)

    # Seeds pop off the end of the solo worklist: reverse table order,
    # *within* each segment.
    pos = np.flatnonzero(flags[am_f])
    if pos.shape[0] == 0:
        return
    seg_pos = seg_ids[pos]
    seed_counts = np.bincount(seg_pos, minlength=n)
    offs = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(seed_counts)]
    )
    ar = np.arange(pos.shape[0], dtype=np.int64)
    seed_pos = pos[offs[seg_pos] + offs[seg_pos + 1] - 1 - ar]

    thr = np.array([t.best_cost for t in tables]) + beam
    seg_seed = seg_ids[seed_pos]
    keepm = cost_f[seed_pos] <= thr[seg_seed]
    keep_pos = seed_pos[keepm]
    seg_keep = seg_seed[keepm]
    kept = np.bincount(seg_keep, minlength=n)
    for i, seg in enumerate(segments):
        seg.stats.beam_pruned += int(seed_counts[i] - kept[i])
    if keep_pos.shape[0] == 0:
        return

    token_index, flat = eps.gather(am_f[keep_pos])
    seg_pair = seg_keep[token_index]
    pair_counts = np.bincount(seg_pair, minlength=n)
    for i, seg in enumerate(segments):
        seg.stats.am_arc_fetches += int(pair_counts[i])
        seg.stats.expansions += int(pair_counts[i])
    num_pairs = int(flat.shape[0])
    if num_pairs == 0:
        return

    olabels = eps.olabel[flat]
    pair_pos = keep_pos[token_index]
    token_cost = cost_f[pair_pos]
    arc_weight = eps.weight[flat]
    pair_lm = lm_f[pair_pos]
    dest_am = eps.nextstate[flat]
    pair_node = node_f[pair_pos]

    is_word = olabels != EPSILON
    final_cost = token_cost + arc_weight
    final_lm = pair_lm.copy()
    committed = np.ones(num_pairs, dtype=bool)
    p_off = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(pair_counts)]
    )
    for i, seg in enumerate(segments):
        a, b = int(p_off[i]), int(p_off[i + 1])
        if a == b:
            continue
        w_loc = np.flatnonzero(is_word[a:b])
        if w_loc.shape[0] == 0:
            continue
        g = a + w_loc
        # The one array-shaped caller: native lists at the hook.
        final_cost[g], final_lm[g], pruned = decoder._cross_word_arrivals(
            seg.lookup,
            pair_lm[g].tolist(),
            olabels[g].tolist(),
            token_cost[g].tolist(),
            arc_weight[g].tolist(),
            float(thr[i]),
        )
        seg.stats.preemptive_pruned += pruned.count(True)
        committed[g] = np.logical_not(pruned)

    keys = (dest_am * np.int64(num_lm) + final_lm).tolist()
    fc = final_cost.tolist()
    fl = final_lm.tolist()
    da = dest_am.tolist()
    pn = pair_node.tolist()
    ol = olabels.tolist()
    iw = is_word.tolist()
    cm = committed.tolist()
    for i, seg in enumerate(segments):
        a, b = int(p_off[i]), int(p_off[i + 1])
        if a == b:
            continue
        table = tables[i]
        hints = table.base_slot_hints(keys[a:b])
        add = seg.lattice.add
        insert = table.insert_hinted
        frame = seg.frame
        words_done = 0
        for j in range(a, b):
            if not cm[j]:
                continue
            cost = fc[j]
            if iw[j]:
                node = add(ol[j], frame, cost, pn[j])
                words_done += 1
                insert(da[j], fl[j], cost, node, hints[j - a])
            else:
                insert(da[j], fl[j], cost, pn[j], hints[j - a])
        seg.stats.token_writes += words_done
        seg.stats.words_emitted += words_done


class BatchDecoder:
    """Decode batches of utterances in lockstep through fused kernels.

    Wraps an :class:`~repro.core.decoder.OnTheFlyDecoder`; utterances
    are processed in waves of ``batch_size``, each wave advancing
    through one :func:`advance_segments` call.  Every segment decodes
    against a fork of the decoder's lookup (cold OLT + expansion
    cache), so results, stats, lattices and lookup counters are
    bit-identical to decoding each utterance alone after
    ``lookup.reset_transient_state()`` — the same determinism contract
    as the process pool's.

    When the decoder can't take the fused path (trace sink attached,
    scalar config, multi-level epsilon graph) ``decode`` transparently
    falls back to exactly that sequential reference.
    """

    def __init__(
        self, decoder: OnTheFlyDecoder, batch_size: int = 8
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.decoder = decoder
        self.batch_size = batch_size
        #: Lockstep frame steps across all decodes (the bench's
        #: kernel-calls metric; a solo decode costs one per frame).
        self.kernel_calls = 0

    @property
    def lockstep_supported(self) -> bool:
        return lockstep_supported(self.decoder)

    def decode(self, score_matrices: list[np.ndarray]) -> list[DecodeResult]:
        """Decode a batch; results are in input order."""
        decoder = self.decoder
        num_senones = decoder.am.num_senones
        matrices = []
        for scores in score_matrices:
            if scores.ndim != 2 or scores.shape[1] < num_senones:
                raise ValueError(
                    f"score matrix shape {scores.shape} incompatible "
                    f"with {num_senones} senones"
                )
            matrices.append(np.ascontiguousarray(scores, dtype=np.float64))
        results = []
        if not self.lockstep_supported:
            for scores in matrices:
                decoder.lookup.reset_transient_state()
                results.append(decoder.decode(scores))
            return results
        label = f"batch[{self.batch_size}]"
        for start in range(0, len(matrices), self.batch_size):
            chunk = matrices[start : start + self.batch_size]
            wave = [decoder.new_segment(decoder.lookup.fork()) for _ in chunk]
            self.kernel_calls += advance_segments(decoder, wave, chunk)
            for seg, scores in zip(wave, chunk):
                seg.stats.frames = scores.shape[0]
                # The fork started from zero, so its running totals
                # *are* this utterance's delta — what decode() reports.
                seg.stats.lookup = seg.lookup.stats.clone()
                result = decoder._finalize(seg.table, seg.lattice, seg.stats)
                result.strategy = label
                results.append(result)
        return results
