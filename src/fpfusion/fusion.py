"""The matcher: both channels plus feature- and score-level fusion.

Channel names: ``mcc`` (angle-gated cylinder channel), ``emb`` (ungated
embedding channel), ``feature`` (union of both channels' selected pairs
before relaxation), ``score`` (weighted sum of the two similarity
matrices before pair selection). Rank-level fusion operates on gallery
ranks, not scores, and lives in ``evaluation.fuse_ranks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.pairing import (
    Pair,
    PairSet,
    SimilarityMatrix,
    compute_n_p,
    compute_n_r,
    lsa_select,
    sim_score,
)
from fpfusion.relaxation import RelaxationParams, match_score, relax
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
        if self.w1 < 0 or self.w2 < 0 or self.w1 + self.w2 <= 0:
            raise ValueError("fusion weights must be non-negative with positive sum")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one template-vs-template comparison."""

    query_id: str
    gallery_id: str
    score: float
    raw_sum: float
    n_pairs_used: int
    channel: str


def _score_pairs(
    pairs: PairSet,
    ta: MinutiaeTemplate,
    tb: MinutiaeTemplate,
    n_p: int,
    params: RelaxationParams,
    channel: str,
) -> MatchResult:
    if len(pairs) == 0:
        return MatchResult(ta.id, tb.id, 0.0, 0.0, 0, channel)
    relaxed = relax(pairs, ta, tb, params)
    score, top = match_score(relaxed, n_p)
    raw = sum(max(p.relaxed, 0.0) for p in top)
    return MatchResult(ta.id, tb.id, score, raw, len(top), channel)


def _union_pairs(pairs_a: PairSet, pairs_b: PairSet) -> PairSet:
    """Merge two channels' pairs; duplicates keep the max score and both tags.

    The merged list is canonically sorted by (row, col) so relaxation input
    never depends on which channel was computed first.
    """
    merged: dict[tuple[int, int], Pair] = {}
    for p in list(pairs_a) + list(pairs_b):
        key = (p.row, p.col)
        old = merged.get(key)
        if old is None:
            merged[key] = p
        else:
            source = old.source if old.source == p.source else f"{old.source}+{p.source}"
            merged[key] = Pair(p.row, p.col, max(old.score, p.score), source)
    ordered = sorted(merged.values(), key=lambda p: (p.row, p.col))
    return PairSet(tuple(ordered))


def _fused_matrix(
    s_mcc: SimilarityMatrix, s_emb: SimilarityMatrix, cfg: FusionConfig
) -> SimilarityMatrix:
    """Weighted sum of the channel matrices.

    A gated entry contributes 0 for its channel; the fused entry is gated
    only when every positively-weighted channel gates it, so embedding
    information survives where the angle gate fires while a zero-weight
    channel drops out entirely (w1=1, w2=0 reproduces the single-channel
    pipeline exactly).
    """
    v_mcc = np.where(s_mcc.gated, 0.0, s_mcc.values)
    v_emb = np.where(s_emb.gated, 0.0, s_emb.values)
    gated = np.ones_like(s_mcc.gated)
    if cfg.w1 > 0:
        gated &= s_mcc.gated
    if cfg.w2 > 0:
        gated &= s_emb.gated
    return SimilarityMatrix(values=cfg.w1 * v_mcc + cfg.w2 * v_emb, gated=gated)


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
    cfg = cfg or FusionConfig()
    if len(ta) == 0 or len(tb) == 0:
        return {ch: MatchResult(ta.id, tb.id, 0.0, 0.0, 0, ch) for ch in CHANNELS}
    s_mcc = sim_score(mcc_a, mcc_b, ta, tb, cfg.delta_theta)
    s_emb = sim_score(emb_a, emb_b)
    n_r = compute_n_r(len(ta), len(tb))
    pairs = {
        "mcc": lsa_select(s_mcc, n_r, source="mcc"),
        "emb": lsa_select(s_emb, n_r, source="emb"),
        "score": lsa_select(_fused_matrix(s_mcc, s_emb, cfg), n_r, source="score"),
    }
    pairs["feature"] = _union_pairs(pairs["mcc"], pairs["emb"])
    n_p = compute_n_p(len(ta), len(tb))
    return {ch: _score_pairs(pairs[ch], ta, tb, n_p, cfg.relaxation, ch) for ch in CHANNELS}
