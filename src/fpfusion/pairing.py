"""Angle-gated cosine similarity matrices and greedy pair selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import angular_difference
from fpfusion.templates import MinutiaeTemplate

DEFAULT_DELTA_THETA = math.pi / 4

MAX_PAIRS_SELECT = 12  # n_R cap
MAX_PAIRS_SCORE = 8  # n_p cap


def compute_n_r(len_a, len_b):
    """Number of pairs selected per channel: min(12, min(len_a, len_b)).

    Template sizes may be ints or arrays of them.
    """
    return np.minimum(MAX_PAIRS_SELECT, np.minimum(len_a, len_b))


def compute_n_p(len_a, len_b):
    """Number of pairs summed into the score: min(8, min(len_a, len_b)).

    Template sizes may be ints or arrays of them.
    """
    return np.minimum(MAX_PAIRS_SCORE, np.minimum(len_a, len_b))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Cosine similarities in [-1, 1] with a GATED mask.

    Gated entries (angle gate fired, or either descriptor invalid) are
    never selected; their stored value is meaningless. The gate is a
    sentinel rather than a low score so that negative cosines stay
    selectable when not gated. ``values`` is one (rows, cols) matrix or a
    stack of them, one per gallery entry.
    """

    values: np.ndarray
    gated: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        gated = np.asarray(self.gated, dtype=bool)
        if values.shape != gated.shape or values.ndim < 2:
            raise ValueError("values and gated must be arrays of equal shape, at least 2-d")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gated", gated)

    @property
    def rows(self) -> int:
        return self.values.shape[-2]

    @property
    def cols(self) -> int:
        return self.values.shape[-1]


class Pair(NamedTuple):
    row: int
    col: int
    score: float
    source: str


@dataclass(frozen=True)
class PairSet:
    """Ranked minutia-index pairs with their initial local scores."""

    pairs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def cosine_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    """Cosine of two nonzero vectors, clamped into [-1, 1]."""
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if v1.shape != v2.shape:
        raise ValueError(f"dimension mismatch: {v1.shape} vs {v2.shape}")
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.clip(v1 @ v2 / (n1 * n2), -1.0, 1.0))


def unit_rows(d: DescriptorSet, out: np.ndarray | None = None) -> DescriptorSet:
    """The descriptors divided by their norms; a zero row becomes invalid.

    ``out=d.vectors`` divides in place, for a set that nothing else holds.
    """
    norms = np.linalg.norm(d.vectors, axis=1)
    vectors = np.divide(d.vectors, np.where(norms > 0, norms, 1.0)[:, None], out=out)
    return DescriptorSet(template_id=d.template_id, vectors=vectors, valid=d.valid & (norms > 0))


def pad_rows(slot: np.ndarray, parts: list) -> np.ndarray:
    """Stack per-entry arrays into a zero-padded (B, width, ...) array.

    ``slot`` (B, width) marks the real positions; entry b fills the first
    ``len(parts[b])`` of row b.
    """
    out = np.zeros(slot.shape + parts[0].shape[1:], dtype=parts[0].dtype)
    out[slot] = np.concatenate(parts)
    return out


def block_cosines(
    q: DescriptorSet, gallery: list, slot: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Cosines of one query against a block of gallery descriptor sets.

    Both sides hold unit rows, so entry b is one matmul, written into
    ``out[b, :, :len(gallery[b])]`` of the zeroed (B, r, width) ``out`` and
    clipped into [-1, 1]. Returns the (B, r, width) gate of invalid
    descriptors, which is True on padding.
    """
    for b, g in enumerate(gallery):
        out[b, :, : len(g)] = q.vectors @ g.vectors.T
    np.clip(out, -1.0, 1.0, out=out)
    valid = pad_rows(slot, [g.valid for g in gallery])
    return ~q.valid[None, :, None] | ~valid[:, None, :]


def angle_gate(theta_q: np.ndarray, theta_g: np.ndarray, delta_theta: float) -> np.ndarray:
    """(B, r, width) mask of direction gaps above ``delta_theta``.

    ``theta_q`` holds the query's r directions and ``theta_g`` (B, width)
    the padded directions of a gallery block.
    """
    return angular_difference(theta_q[:, None], theta_g[:, None, :]) > delta_theta


def sim_score(
    a: DescriptorSet,
    b: DescriptorSet,
    template_a: MinutiaeTemplate | None = None,
    template_b: MinutiaeTemplate | None = None,
    delta_theta: float = DEFAULT_DELTA_THETA,
) -> SimilarityMatrix:
    """Pairwise cosine matrix between two descriptor sets.

    When both templates are supplied, entry (i, j) is gated unless the
    circular difference of the minutia directions is within
    ``delta_theta``. Without templates the gate trivially passes.
    Entries involving invalid or zero descriptors are always gated.
    """
    if template_a is not None and len(template_a) != len(a):
        raise ValueError(f"descriptor count {len(a)} != template size {len(template_a)}")
    if template_b is not None and len(template_b) != len(b):
        raise ValueError(f"descriptor count {len(b)} != template size {len(template_b)}")
    a, b = unit_rows(a), unit_rows(b)
    values = np.zeros((1, len(a), len(b)))
    gated = block_cosines(a, [b], np.ones((1, len(b)), dtype=bool), values)
    if template_a is not None and template_b is not None:
        gated |= angle_gate(template_a.thetas(), template_b.thetas()[None], delta_theta)
    return SimilarityMatrix(values=values[0], gated=gated[0])


def select_pairs(work: np.ndarray, n_r: np.ndarray):
    """Greedy pair selection on every matrix of a (K, r, c) stack at once.

    ``work`` holds -inf at gated and padding entries and is consumed.
    Round i takes, in every matrix still below its ``n_r[k]`` pairs, the
    maximal entry (first occurrence: smaller row, then smaller column)
    and masks its row and column; a matrix with no finite entry left stops.
    Pairs come out in selection order, which is score descending with the
    same tie-break. Returns rows, cols and scores (K, max n_r) and the
    pair counts (K,); positions at or past a matrix's count are undefined.
    """
    k_count, r, c = work.shape
    rounds = int(n_r.max(initial=0))
    rows = np.zeros((k_count, rounds), dtype=np.intp)
    cols = np.zeros((k_count, rounds), dtype=np.intp)
    scores = np.zeros((k_count, rounds))
    count = np.zeros(k_count, dtype=np.intp)
    if r == 0 or c == 0:
        return rows, cols, scores, count
    flat = work.reshape(k_count, r * c)
    k = np.arange(k_count)
    for i in range(rounds):
        idx = flat.argmax(axis=1)
        best = flat[k, idx]
        live = (i < n_r) & (best > -np.inf)
        if not live.any():
            break
        rows[:, i], cols[:, i] = np.divmod(idx, c)
        scores[:, i] = best
        count += live
        work[k, rows[:, i], :] = -np.inf
        work[k, :, cols[:, i]] = -np.inf
    return rows, cols, scores, count


def lsa_select(s: SimilarityMatrix, n_r: int, source: str = "") -> PairSet:
    """Greedy top-pair selection without reusing a row or column.

    Repeatedly takes the globally maximal non-gated entry whose row and
    column are both unused, until ``n_r`` pairs are chosen or none remain.
    Ties break on smaller row, then smaller column; output is sorted by
    score descending with the same tie-break.
    """
    if n_r <= 0 or s.rows == 0 or s.cols == 0:
        return PairSet(())
    work = np.where(s.gated, -np.inf, s.values)[None]
    rows, cols, scores, count = select_pairs(work, np.array([n_r]))
    return PairSet(
        tuple(
            Pair(int(rows[0, i]), int(cols[0, i]), float(scores[0, i]), source)
            for i in range(count[0])
        )
    )
