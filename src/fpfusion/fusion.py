"""The matcher: both channels plus feature- and score-level fusion.

Channel names: ``mcc`` (angle-gated cylinder channel), ``emb`` (ungated
embedding channel), ``feature`` (union of both channels' selected pairs
before relaxation), ``score`` (weighted sum of the two similarity
matrices before pair selection). Rank-level fusion operates on gallery
ranks, not scores, and lives in ``evaluation.fuse_ranks``.

One query is scored against a block of gallery entries at a time: the
similarity matrices of the block are padded into one stack, pairs are
selected on all of them in one pass, and the selected pairs of every
entry and channel are relaxed in one pass. All four pair lists of an
entry are read off one union of its selections, sorted by (row, col),
and compatibilities are computed once per union pair. Relaxation touches
only live pair slots: each list's compatibility rows are gathered by
flat index for the pairs it holds, and no row is built for padding. A
block holds as many entries as fit an element budget, and the blocks of a
call are evened out, so a ~12-minutia latent query scores 100 fingers in
two passes of 50 while a dense query's stacks stay bounded; the query's
own pair geometry is built once per call. Blocks are scored on two lanes,
the calling thread and one helper thread, so two passes are in flight at
once. A single template pair is the one-entry case of the same engine,
and a one-block call never touches the helper.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.pairing import (
    angle_gate,
    block_cosines,
    compute_n_p,
    compute_n_r,
    pad_rows,
    select_pairs,
)
from fpfusion.relaxation import (
    PAIR_SLOTS,
    RelaxationParams,
    compatibilities,
    relax_scores,
    side_geometry,
    top_scores,
)
from fpfusion.templates import MinutiaeTemplate

CHANNELS = ("mcc", "emb", "feature", "score")


@dataclass(frozen=True)
class FusionConfig:
    """Weights, angle gate and relaxation parameters for all matchers."""

    w1: float = 0.5  # cylinder-channel weight in score fusion
    w2: float = 0.5  # embedding-channel weight in score fusion
    delta_theta: float = math.pi / 4
    relaxation: RelaxationParams = field(default_factory=RelaxationParams)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.w1, self.w2, self.delta_theta)):
            raise ValueError("w1, w2 and delta_theta must be finite")
        if self.w1 < 0 or self.w2 < 0 or self.w1 + self.w2 <= 0:
            raise ValueError("fusion weights must be non-negative with positive sum")


@dataclass(frozen=True)
class GalleryEntry:
    """A template with one descriptor row per minutia in each set, held as
    unit rows (see ``pairing.unit_rows``), so similarity is one matmul."""

    template: MinutiaeTemplate
    mcc: DescriptorSet
    embedding: DescriptorSet

    def __post_init__(self):
        for name, d in (("mcc", self.mcc), ("embedding", self.embedding)):
            if len(d) != len(self.template):
                raise ValueError(f"{name} count {len(d)} != template size {len(self.template)}")


def _fused_matrix(work: np.ndarray, gated_mcc, gated_emb, cfg: FusionConfig) -> np.ndarray:
    """Write the weighted sum of the channel matrices ``work[0]`` (mcc) and
    ``work[1]`` (emb) into ``work[2]``; return its gate.

    A gated entry contributes 0 for its channel; the fused entry is gated
    only when every positively-weighted channel gates it, so embedding
    information survives where the angle gate fires while a zero-weight
    channel drops out entirely (w1=1, w2=0 reproduces the single-channel
    pipeline exactly).
    """
    fused = np.multiply(work[0], cfg.w1, out=work[2])
    np.copyto(fused, 0.0, where=gated_mcc)
    scaled = np.multiply(work[1], cfg.w2)
    np.copyto(scaled, 0.0, where=gated_emb)
    fused += scaled
    return (gated_mcc | (cfg.w1 == 0)) & (gated_emb | (cfg.w2 == 0))


# Elements of the padded stacks of one pass. An entry costs its three
# (r, width) selection matrices plus 4 * PAIR_SLOTS**2 for relaxation, which
# bounds both its compatibility stack (at most (3 * 12)**2 selected pairs)
# and its live relaxation rows (at most 4 lists of PAIR_SLOTS rows). A
# latent query (~12 x 60) puts ~56 entries in a block and a dense one
# (~90 x 120) ~7. The tracemalloc peak of one match_gallery call, against
# fixed 16-entry blocks: 4.2 MB (max 6.0) instead of 1.3 (1.7) for a latent
# query on 100 fingers, 4.5 MB (max 4.9) instead of 11.3 (12.8) for a dense
# query on 40; reading every pair list off one union and fusing in place
# lowered them to about 3.3 (5.5) and 3.0 (3.3) MB. The budget bounds one
# pass, but both scoring lanes (below) hold a pass at once, so a call's
# peak is about twice one pass: 5.3 (8.6) and 5.3 (6.2) MB.
_BUDGET = 1 << 18

# Two scoring lanes: the calling thread scores blocks 0, 2, 4, ... and this
# one helper thread blocks 1, 3, ... (its thread starts on the first
# multi-block call). numpy's ufunc loops and BLAS release the GIL, so the
# helper's block runs beside the caller's. Two matches the two cores the
# engine was measured on, and pinned to one core it was no slower; more
# lanes would multiply the memory in flight.
def _new_helper():
    """Create the helper lane; again in a forked child, which inherits the
    executor but not its thread."""
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fpfusion-lane")


_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)


def _entries_per_block(rows: int, width: int) -> int:
    """Gallery entries per pass for a query of ``rows`` minutiae against
    entries at most ``width`` wide; at least 1."""
    return max(1, _BUDGET // (3 * rows * width + 4 * PAIR_SLOTS**2))


def _packed(group, n, width):
    """Flat index of each element in a (len(n), ``width``) array whose row
    g holds, first, the ``n[g]`` elements of group g; ``group`` is sorted."""
    return group * width + np.arange(len(group)) - np.repeat(np.cumsum(n) - n, n)


def _union_pairs(rows, cols, scores, count, shape):
    """Per gallery entry, the union of several selections.

    ``rows``, ``cols`` and ``scores`` are (C, B, R) selections with
    ``count`` (C, B) live pairs each, none of which selects a cell twice;
    ``shape`` is the block's (r, width). Each entry's union comes out
    sorted by (row, col) as rows and cols (B, largest union), with every
    selection's score at each union slot (C, B, largest union), -inf where
    it did not select the pair. Padding slots hold pair (0, 0) at -inf in
    every selection.
    """
    r, width = shape
    live = np.arange(rows.shape[2]) < count[..., None]
    k, b, _ = np.nonzero(live)
    cell, slot = np.unique((b * r + rows[live]) * width + cols[live], return_inverse=True)
    b, within = np.divmod(cell, r * width)  # sorted by (entry, row, col)
    n = np.bincount(b, minlength=count.shape[1])
    big = max(int(n.max()), 1)
    at = _packed(b, n, big)
    united = np.zeros(len(n) * big, dtype=np.intp)
    np.put(united, at, within)
    held = np.full((len(rows), len(n) * big), -np.inf)
    held[k, np.take(at, slot)] = scores[live]
    return (*np.divmod(united.reshape(-1, big), width), held.reshape(len(rows), -1, big))


def _select_block(query: GalleryEntry, block: list, slot: np.ndarray, theta_b, cfg: FusionConfig):
    """Pair selection of one query against a block on the mcc, emb and fused
    matrices, as (3, B, R) rows, cols and scores and (3, B) pair counts.

    The three matrices of every entry live in one padded work stack, with
    gated and padding entries at -inf.
    """
    ta = query.template
    size, width = slot.shape
    turned = angle_gate(ta.thetas(), theta_b, cfg.delta_theta)
    work = np.zeros((3, size, len(ta), width))
    gated_mcc = block_cosines(query.mcc, [e.mcc for e in block], slot, work[0]) | turned
    gated_emb = block_cosines(query.embedding, [e.embedding for e in block], slot, work[1])
    gated_fused = _fused_matrix(work, gated_mcc, gated_emb, cfg)
    for k, gated in enumerate((gated_mcc, gated_emb, gated_fused)):
        np.copyto(work[k], -np.inf, where=gated)
    n_r = compute_n_r(len(ta), slot.sum(axis=1))
    rows, cols, scores, count = select_pairs(work.reshape(-1, len(ta), width), np.tile(n_r, 3))
    return (*(a.reshape(3, size, -1) for a in (rows, cols, scores)), count.reshape(3, size))


def _match_block(query: GalleryEntry, side_a: tuple, block: list, cfg: FusionConfig):
    """Score one query against a block of B gallery entries on every channel.

    ``side_a`` is the query's ``side_geometry``. Returns the scores, the
    raw sums of the top relaxed values and the pairs used, each
    (len(CHANNELS), B).
    """
    ta = query.template
    counts = np.array([len(e.template) for e in block], dtype=np.intp)
    size, width = len(block), max(int(counts.max()), 1)
    slot = np.arange(width) < counts[:, None]
    theta_b = pad_rows(slot, [e.template.thetas() for e in block])
    xy_b = pad_rows(slot, [e.template.positions() for e in block])
    r = len(ta)
    rows, cols, scores, count = _select_block(query, block, slot, theta_b, cfg)

    # Pair lists in CHANNELS order, all read off the union of the block's
    # selections: each holds its pairs in (row, col) order, so two channels
    # that select the same pairs relax them to the same values. feature holds
    # the mcc and emb pairs, a pair both select at its larger score.
    u_rows, u_cols, held = _union_pairs(rows, cols, scores, count, (r, width))
    big = u_rows.shape[1]
    mcc, emb, fused = held
    lists = np.stack([mcc, emb, np.maximum(mcc, emb), fused]).reshape(-1, big)
    live = lists > -np.inf
    n = np.count_nonzero(live, axis=1)
    at = np.flatnonzero(live)  # live slots, list-major
    lst, union_at = np.divmod(at, big)
    slot_at = _packed(lst, n, PAIR_SLOTS)
    gamma = np.zeros((4 * size, PAIR_SLOTS))
    pos = np.zeros((4 * size, PAIR_SLOTS), dtype=np.intp)
    np.put(gamma, slot_at, np.take(lists, at))
    np.put(pos, slot_at, union_at)

    # Compatibilities are computed once per distinct selected pair of an
    # entry (the query side gathered from the geometry of all its minutiae),
    # then gathered into the live rows of each list: the values equal a
    # per-list computation, element for element. Every gather takes flat
    # indices.
    col = np.arange(size)[:, None] * width + u_cols
    rho_u = compatibilities(
        tuple(np.take(m, u_rows[:, :, None] * r + u_rows[:, None, :]) for m in side_a),
        side_geometry(np.take(xy_b.reshape(-1, 2), col, axis=0), np.take(theta_b, col)),
        cfg.relaxation,
    )
    start = ((lst % size) * big + union_at) * big
    rho = np.take(rho_u, start[:, None] + np.take(pos, lst, axis=0))
    del rho_u, pos  # not read by relaxation; lowers the peak

    relaxed = relax_scores(rho, gamma, n, cfg.relaxation)
    n_p = np.tile(compute_n_p(len(ta), counts), 4)
    return tuple(a.reshape(4, size) for a in top_scores(relaxed, n, n_p))


def match_gallery(query: GalleryEntry, entries: list, cfg: FusionConfig | None = None):
    """Score one query against gallery entries on every channel, in blocks
    sized by the element budget and scored on two lanes.

    The calling thread scores blocks 0, 2, ... and the helper thread blocks
    1, 3, ..., in the caller's context; an exception from either lane is
    re-raised once no block of the call is running.

    ``query`` and ``entries`` are ``GalleryEntry`` objects. Returns the
    scores, raw sums and pairs used, each (len(CHANNELS), len(entries)); an
    empty query scores 0 everywhere. An entry whose cylinder or embedding
    dimension differs from the query's raises ``ValueError``.
    """
    cfg = cfg or FusionConfig()
    for e in entries:
        for ch, a, b in (("mcc", query.mcc, e.mcc), ("emb", query.embedding, e.embedding)):
            if a.dim != b.dim:
                raise ValueError(
                    f"{ch} descriptors of gallery entry {e.template.id!r} have dimension "
                    f"{b.dim}, the query's have {a.dim}"
                )
    if len(query.template) == 0 or not entries:
        zeros = np.zeros((len(CHANNELS), len(entries)))
        return zeros, zeros.copy(), zeros.astype(np.intp)
    ta = query.template
    side_a = side_geometry(ta.positions(), ta.thetas())
    step = _entries_per_block(len(ta), max(len(e.template) for e in entries))
    passes = -(-len(entries) // step)
    step = -(-len(entries) // passes)  # as many passes, evened out
    blocks = [entries[i : i + step] for i in range(0, len(entries), step)]
    # Each helper block runs in a copy of the caller's context, so numpy's
    # error state (a context variable) is the same on both lanes.
    helped = [
        _HELPER.submit(contextvars.copy_context().run, _match_block, query, side_a, block, cfg)
        for block in blocks[1::2]
    ]
    parts = [None] * len(blocks)
    try:
        parts[0::2] = [_match_block(query, side_a, block, cfg) for block in blocks[0::2]]
        parts[1::2] = [f.result() for f in helped]
    except BaseException:
        for f in helped:
            f.cancel()
        wait(helped)  # no block of this call outlives it
        raise
    return tuple(np.concatenate(column, axis=1) for column in zip(*parts))
