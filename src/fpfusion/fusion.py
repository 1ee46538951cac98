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
once. A call that needs more than one pass takes an even number of them,
so each lane scores half of the gallery: a latent query of ~17-28
minutiae scores 100 default fingers in four passes of 25, not three of
33-34. A single template pair is the one-entry case of the same engine,
and a one-block call never touches the helper.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

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
    RELAX_ITERATIONS,
    RELAX_WEIGHT,
    compatibilities,
    relax_scores,
    side_geometry,
    top_scores,
)
from fpfusion.templates import MinutiaeTemplate

CHANNELS = ("mcc", "emb", "feature", "score")


@dataclass(frozen=True)
class FusionConfig:
    """Fusion weight and angle gate: the one config of matching."""

    w1: float = 0.5  # cylinder-channel weight in score fusion; emb weighs 1 - w1
    delta_theta: float = math.pi / 4

    def __post_init__(self):
        if not 0 <= self.w1 <= 1:  # NaN fails too
            raise ValueError("fusion weights w1 and 1 - w1 must be finite and in [0, 1]")
        if not math.isfinite(self.delta_theta):
            raise ValueError("delta_theta must be finite")


@dataclass(frozen=True)
class GalleryEntry:
    """A template with one descriptor row per minutia in each set, held as
    unit rows (see ``descriptors.unit_rows``), so similarity is one product."""

    template: MinutiaeTemplate
    mcc: DescriptorSet
    embedding: DescriptorSet

    def __post_init__(self):
        for name, d in (("mcc", self.mcc), ("embedding", self.embedding)):
            if len(d) != len(self.template):
                raise ValueError(f"{name} count {len(d)} != template size {len(self.template)}")


def _fused_matrix(work: np.ndarray, gated_mcc, gated_emb, cfg: FusionConfig) -> np.ndarray:
    """Write the sum of the channel matrices ``work[0]`` (mcc) and
    ``work[1]`` (emb), weighted ``w1`` and ``1 - w1``, into ``work[2]``;
    return its gate.

    A gated entry contributes 0 for its channel; the fused entry is gated
    only when every positively-weighted channel gates it, so embedding
    information survives where the angle gate fires while a zero-weight
    channel drops out entirely (w1=1 reproduces the cylinder channel and
    w1=0 the embedding channel exactly). The weights sum to 1, so fused
    entries stay in [-1, 1].
    """
    w2 = 1.0 - cfg.w1
    fused = np.multiply(work[0], cfg.w1, out=work[2])
    np.copyto(fused, 0.0, where=gated_mcc)
    scaled = np.multiply(work[1], w2)
    np.copyto(scaled, 0.0, where=gated_emb)
    fused += scaled
    return (gated_mcc | (cfg.w1 == 0)) & (gated_emb | (w2 == 0))


# Elements of the padded stacks of one pass. An entry costs its three
# (r, width) selection matrices plus 4 * PAIR_SLOTS**2 for relaxation, which
# bounds both its compatibility stack (at most (3 * 12)**2 selected pairs)
# and its live relaxation rows (at most 4 lists of PAIR_SLOTS rows). A
# latent query (~12 x 60) puts ~56 entries in a block and a dense one
# (~90 x 120) ~7. The budget bounds one pass, but both scoring lanes (below)
# hold a pass at once, so a call's peak is about twice one pass. The
# tracemalloc peak of one match_gallery call (seed 11, three runs) is
# 4.3-4.5 MB mean and 8.7-9.4 MB max for 30 latent queries on 100 fingers,
# and 4.7-4.8 MB mean and 5.5-6.0 MB max for 20 dense queries on 40.
_BUDGET = 1 << 18

# Two scoring lanes: the calling thread scores blocks 0, 2, 4, ... and this
# one helper thread blocks 1, 3, ... (its thread starts on the first
# multi-block call). A multi-block call has an even number of blocks when
# it has that many entries, so a query that needs three passes runs four
# smaller ones, two per lane, and no lane idles while the other scores a
# last block. The lanes overlap only where numpy releases the GIL: np.dot
# around its BLAS call, a 2-d np.matmul only above ~500 output elements
# (11 x 46 products scaled on two threads, 11 x 45 ones did not), and ufunc
# loops likewise only over larger arrays; so the similarity products are
# np.dot calls. Two matches the two cores the engine was measured on;
# pinned to one core, two lanes were 2-5% slower than one at the latent
# median (three pairs). More lanes would multiply the memory in flight.
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
    scratch = work[2].reshape(-1)  # overwritten by _fused_matrix below
    gated_mcc = block_cosines(query.mcc, [e.mcc for e in block], slot, work[0], scratch) | turned
    gated_emb = block_cosines(
        query.embedding, [e.embedding for e in block], slot, work[1], scratch
    )
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
    )
    start = ((lst % size) * big + union_at) * big
    rho = np.take(rho_u, start[:, None] + np.take(pos, lst, axis=0))
    del rho_u, pos  # not read by relaxation; lowers the peak

    relaxed = relax_scores(rho, gamma, n, RELAX_WEIGHT, RELAX_ITERATIONS)
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
    dims = (query.mcc.dim, query.embedding.dim)
    for e in entries:
        got = (e.mcc.dim, e.embedding.dim)
        if got != dims:
            k = int(got[0] == dims[0])  # the first channel that differs: mcc, then emb
            raise ValueError(
                f"{CHANNELS[k]} descriptors of gallery entry {e.template.id!r} have dimension "
                f"{got[k]}, the query's have {dims[k]}"
            )
    if len(query.template) == 0 or not entries:
        zeros = np.zeros((len(CHANNELS), len(entries)))
        return zeros, zeros.copy(), zeros.astype(np.intp)
    ta = query.template
    side_a = side_geometry(ta.positions(), ta.thetas())
    n = len(entries)
    passes = -(-n // _entries_per_block(len(ta), max(len(e.template) for e in entries)))
    if passes > 1:  # an even count, so that each lane scores half of the gallery
        passes = min(passes + passes % 2, n)
    # one block per pass, their sizes evened out
    blocks = [entries[n * i // passes : n * (i + 1) // passes] for i in range(passes)]
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
