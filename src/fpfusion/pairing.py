"""Angle-gated cosine similarity matrices and greedy pair selection."""

from __future__ import annotations

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import angular_difference

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
