"""The matcher: both channels plus feature- and score-level fusion.

Channel names: ``mcc`` (angle-gated cylinder channel), ``emb`` (ungated
embedding channel), ``feature`` (union of both channels' selected pairs
before relaxation), ``score`` (weighted sum of the two similarity
matrices before pair selection). Rank-level fusion operates on gallery
ranks, not scores, and lives in ``evaluation.fuse_ranks``.

One query is scored against a block of gallery entries at a time: the
similarity matrices of the block are padded into one stack, pairs are
selected on all of them in one pass, and the selected pairs of every
entry and channel are relaxed in one pass. A single template pair is the
one-entry case of the same engine.
"""

from __future__ import annotations

import math
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
    unit_rows,
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


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one template-vs-template comparison."""

    query_id: str
    gallery_id: str
    score: float
    raw_sum: float
    n_pairs_used: int
    channel: str


def _fused_matrix(mcc: tuple, emb: tuple, cfg: FusionConfig) -> tuple:
    """Weighted sum of the channel matrices, each given as (values, gated).

    A gated entry contributes 0 for its channel; the fused entry is gated
    only when every positively-weighted channel gates it, so embedding
    information survives where the angle gate fires while a zero-weight
    channel drops out entirely (w1=1, w2=0 reproduces the single-channel
    pipeline exactly). Returns the fused (values, gated).
    """
    (values_mcc, gated_mcc), (values_emb, gated_emb) = mcc, emb
    v_mcc = np.where(gated_mcc, 0.0, values_mcc)
    v_emb = np.where(gated_emb, 0.0, values_emb)
    gated = np.ones_like(gated_mcc)
    if cfg.w1 > 0:
        gated &= gated_mcc
    if cfg.w2 > 0:
        gated &= gated_emb
    return cfg.w1 * v_mcc + cfg.w2 * v_emb, gated


# Gallery entries per padded pass. It bounds the padded stacks whatever
# the gallery size: for latent queries (~16 x 60 matrices) the work stack
# is ~0.4 MB and one identification peaks below 2 MB of temporaries.
_BLOCK = 16


def _union_pairs(rows, cols, scores, count, shape):
    """Per gallery entry, the union of several selections.

    ``rows``, ``cols`` and ``scores`` are (C, B, R) selections with
    ``count`` (C, B) live pairs each; ``shape`` is the block's (B, r,
    width). A pair selected more than once keeps its largest score. Each
    entry's union comes out sorted by (row, col) as rows, cols and scores
    (B, largest union), with the union sizes (B,).
    """
    live = np.arange(rows.shape[2]) < count[..., None]
    channel, b, slot = np.nonzero(live)
    grid = np.full(shape, -np.inf)
    np.maximum.at(grid, (b, rows[channel, b, slot], cols[channel, b, slot]), scores[live])
    b, i, j = np.nonzero(grid > -np.inf)  # row-major: sorted by (entry, row, col)
    n = np.bincount(b, minlength=shape[0])
    pos = np.arange(len(b)) - np.repeat(np.cumsum(n) - n, n)
    out = [np.zeros((shape[0], max(int(n.max()), 1)), dtype=d) for d in (np.intp, np.intp, float)]
    out[0][b, pos], out[1][b, pos], out[2][b, pos] = i, j, grid[b, i, j]
    return (*out, n)


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
    work[2], gated_fused = _fused_matrix((work[0], gated_mcc), (work[1], gated_emb), cfg)
    for k, gated in enumerate((gated_mcc, gated_emb, gated_fused)):
        np.copyto(work[k], -np.inf, where=gated)
    n_r = compute_n_r(len(ta), slot.sum(axis=1))
    rows, cols, scores, count = select_pairs(work.reshape(-1, len(ta), width), np.tile(n_r, 3))
    return (*(a.reshape(3, size, -1) for a in (rows, cols, scores)), count.reshape(3, size))


def _match_block(query: GalleryEntry, block: list, cfg: FusionConfig):
    """Score one query against a block of B gallery entries on every channel.

    Returns the scores, the raw sums of the top relaxed values and the
    pairs used, each (len(CHANNELS), B).
    """
    ta = query.template
    counts = np.array([len(e.template) for e in block], dtype=np.intp)
    size, width = len(block), max(int(counts.max()), 1)
    slot = np.arange(width) < counts[:, None]
    theta_b = pad_rows(slot, [e.template.thetas() for e in block])
    xy_b = pad_rows(slot, [e.template.positions() for e in block])
    shape = (size, len(ta), width)
    rows, cols, scores, count = _select_block(query, block, slot, theta_b, cfg)

    # Pair lists in CHANNELS order, PAIR_SLOTS wide; feature is the union
    # of the mcc and emb selections.
    feature = _union_pairs(rows[:2], cols[:2], scores[:2], count[:2], shape)
    lists = []
    for selected, united in zip((rows, cols, scores), feature):
        padded = np.zeros((4, size, PAIR_SLOTS), dtype=selected.dtype)
        padded[[0, 1, 3], :, : selected.shape[2]] = selected
        padded[2, :, : united.shape[1]] = united
        lists.append(padded)
    p_rows, p_cols, gamma = lists
    n = np.stack([count[0], count[1], feature[3], count[2]])
    gamma = np.where(np.arange(PAIR_SLOTS) < n[..., None], gamma, 0.0)

    # Compatibilities are computed once per distinct selected pair of an
    # entry (the query side gathered from the geometry of all its minutiae),
    # then gathered into each channel's list: the values equal a per-list
    # computation, element for element.
    u_rows, u_cols, _, u_n = _union_pairs(rows, cols, scores, count, shape)
    entry = np.arange(size)[:, None]
    ub, us = np.nonzero(np.arange(u_rows.shape[1]) < u_n[:, None])
    index = np.zeros(shape, dtype=np.intp)
    index[ub, u_rows[ub, us], u_cols[ub, us]] = us
    side_a = side_geometry(ta.positions(), ta.thetas())
    rho_u = compatibilities(
        tuple(m[u_rows[:, :, None], u_rows[:, None, :]] for m in side_a),
        side_geometry(xy_b[entry, u_cols], theta_b[entry, u_cols]),
        cfg.relaxation,
    )
    pos = index[entry[None], p_rows, p_cols]
    rho = rho_u[entry[None, :, :, None], pos[..., :, None], pos[..., None, :]]

    n = n.reshape(-1)
    relaxed = relax_scores(
        rho.reshape(-1, PAIR_SLOTS, PAIR_SLOTS), gamma.reshape(-1, PAIR_SLOTS), n, cfg.relaxation
    )
    n_p = np.tile(compute_n_p(len(ta), counts), 4)
    return tuple(a.reshape(4, size) for a in top_scores(relaxed, n, n_p))


def match_gallery(query: GalleryEntry, entries: list, cfg: FusionConfig | None = None):
    """Score one query against gallery entries on every channel, block by block.

    ``query`` and ``entries`` are ``GalleryEntry`` objects. Returns the
    scores, raw sums and pairs used, each (len(CHANNELS), len(entries)); an
    empty query scores 0 everywhere.
    """
    cfg = cfg or FusionConfig()
    if len(query.template) == 0 or not entries:
        zeros = np.zeros((len(CHANNELS), len(entries)))
        return zeros, zeros.copy(), zeros.astype(np.intp)
    parts = [
        _match_block(query, entries[i : i + _BLOCK], cfg) for i in range(0, len(entries), _BLOCK)
    ]
    return tuple(np.concatenate(column, axis=1) for column in zip(*parts))


def match_all_channels(
    ta: MinutiaeTemplate,
    tb: MinutiaeTemplate,
    mcc_a: DescriptorSet,
    mcc_b: DescriptorSet,
    emb_a: DescriptorSet,
    emb_b: DescriptorSet,
    cfg: FusionConfig | None = None,
) -> dict[str, MatchResult]:
    """Score one template pair on every channel.

    Both similarity matrices are computed once. Pairs are selected three
    times, on the cylinder, embedding and fused matrices; the feature
    channel relaxes the union of the first two selections. Either template
    being empty scores 0 on every channel.
    """
    query = GalleryEntry(ta, unit_rows(mcc_a), unit_rows(emb_a))
    entry = GalleryEntry(tb, unit_rows(mcc_b), unit_rows(emb_b))
    scores, raw, used = match_gallery(query, [entry], cfg)
    return {
        ch: MatchResult(ta.id, tb.id, float(scores[k, 0]), float(raw[k, 0]), int(used[k, 0]), ch)
        for k, ch in enumerate(CHANNELS)
    }
