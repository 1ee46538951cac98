"""Relaxation of selected pairs into a global match score.

Each pair's score is iteratively mixed with the compatibility-weighted
mean of all other pairs' scores; geometrically inconsistent pairs decay
while mutually consistent ones persist. The final score averages the top
pairs after relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fpfusion.geometry import (
    angular_difference,
    direction_difference,
    euclidean_distance,
    radial_angle,
)
from fpfusion.pairing import MAX_PAIRS_SCORE, MAX_PAIRS_SELECT, PairSet
from fpfusion.templates import Minutia, MinutiaeTemplate

# Pair slots of one relaxation: the feature channel relaxes the union of two
# selections. Sums run over this fixed width, so a score never depends on
# which other lists share its batch.
PAIR_SLOTS = 2 * MAX_PAIRS_SELECT


@dataclass(frozen=True)
class RelaxationParams:
    """Relaxation weights and the sigmoid compatibility parameters.

    ``distance_scale`` divides the spatial-distance discrepancy before the
    first sigmoid, so mu[0]=0.0416 corresponds to ~4.16 px.
    """

    weight: float = 0.5  # mixing factor per iteration
    iterations: int = 5
    mu: tuple[float, float, float] = (0.0416, 0.7853, 0.2094)
    tau: tuple[float, float, float] = (-30.0, -9.0, -16.8)
    distance_scale: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


@dataclass(frozen=True)
class RelaxedPair:
    row: int
    col: int
    initial: float
    relaxed: float
    source: str = ""


@dataclass(frozen=True)
class RelaxedPairs:
    """Pairs with initial and relaxed scores plus the compatibility matrix."""

    pairs: tuple
    rho: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)


def _sigmoid_product(d1, d2, d3, params: RelaxationParams):
    out = 1.0
    for d, mu, tau in zip((d1, d2, d3), params.mu, params.tau):
        out = out / (1.0 + np.exp(-tau * (d - mu)))
    return out


def pair_compatibility(
    t_pair: tuple[Minutia, Minutia],
    k_pair: tuple[Minutia, Minutia],
    params: RelaxationParams | None = None,
) -> float:
    """Geometric compatibility of two minutia pairs, in (0, 1).

    Compares, between the A side and the B side: the spatial distance
    (scaled by 1/distance_scale), the direction difference and the radial
    angle of the two involved minutiae; each discrepancy passes through a
    sigmoid and the three factors multiply.
    """
    params = params or RelaxationParams()
    a_t, b_t = t_pair
    a_k, b_k = k_pair
    d1 = abs(euclidean_distance(a_t, a_k) - euclidean_distance(b_t, b_k))
    d1 /= params.distance_scale
    d2 = abs(
        angular_difference(direction_difference(a_t, a_k), direction_difference(b_t, b_k))
    )
    d3 = abs(angular_difference(radial_angle(a_t, a_k), radial_angle(b_t, b_k)))
    return float(_sigmoid_product(d1, d2, d3, params))


def _pairwise_radial(x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(..., n, n) radial angles between minutiae t (row) and k (col)."""
    dy = y[..., :, None] - y[..., None, :]
    dx = x[..., None, :] - x[..., :, None]
    ray = np.arctan2(dy, dx)
    out = angular_difference(theta[..., :, None], ray)
    out[(dx == 0) & (dy == 0)] = 0.0  # co-located convention
    return out


def side_geometry(xy: np.ndarray, theta: np.ndarray) -> tuple:
    """Spatial distance, direction difference and radial angle of every
    ordered pair of minutiae on one side.

    ``xy`` is (..., n, 2) and ``theta`` (..., n); each result is (..., n, n).
    """
    spread = np.hypot(
        xy[..., :, None, 0] - xy[..., None, :, 0], xy[..., :, None, 1] - xy[..., None, :, 1]
    )
    turn = angular_difference(theta[..., :, None], theta[..., None, :])
    return spread, turn, _pairwise_radial(xy[..., 0], xy[..., 1], theta)


def compatibilities(side_a: tuple, side_b: tuple, params: RelaxationParams) -> np.ndarray:
    """Compatibilities of pair lists from their two sides' ``side_geometry``.

    Entry (p, q) compares pairs p and q of a list: the discrepancies of
    their A-side and B-side distance, direction difference and radial
    angle pass through the three sigmoids. The diagonal is unused.
    """
    d1 = np.abs(side_a[0] - side_b[0]) / params.distance_scale
    d2 = np.abs(angular_difference(side_a[1], side_b[1]))
    d3 = np.abs(angular_difference(side_a[2], side_b[2]))
    return _sigmoid_product(d1, d2, d3, params)


def compatibility_matrix(
    pairs: PairSet | tuple,
    template_a: MinutiaeTemplate,
    template_b: MinutiaeTemplate,
    params: RelaxationParams,
) -> np.ndarray:
    """Pairwise compatibilities of one pair list; the diagonal is unused."""
    rows = np.array([p.row for p in pairs], dtype=np.intp)
    cols = np.array([p.col for p in pairs], dtype=np.intp)
    return compatibilities(
        side_geometry(template_a.positions()[rows], template_a.thetas()[rows]),
        side_geometry(template_b.positions()[cols], template_b.thetas()[cols]),
        params,
    )


def relax_scores(
    rho: np.ndarray, gamma: np.ndarray, n: np.ndarray, params: RelaxationParams
) -> np.ndarray:
    """Synchronous relaxation of K padded pair lists at once.

    ``rho`` (K, P, P) and initial scores ``gamma`` (K, P) hold list k's
    ``n[k]`` pairs first; ``rho`` is overwritten. Each iteration mixes
    every score with the compatibility-weighted mean of the other live
    pairs' previous scores. A one-pair list has no peers and keeps its
    initial score; values past ``n[k]`` are undefined.
    """
    slots = np.arange(rho.shape[-1])
    live = slots[None, :] < n[:, None]
    peers = np.multiply(rho, live[:, None, :] & (slots[:, None] != slots[None, :]), out=rho)
    others = np.maximum(n - 1, 1)[:, None]
    w = params.weight
    relaxed = gamma
    for _ in range(params.iterations):
        support = (peers * relaxed[:, None, :]).sum(axis=2) / others
        relaxed = w * relaxed + (1.0 - w) * support
    return np.where((n > 1)[:, None], relaxed, gamma)


def top_scores(relaxed: np.ndarray, n: np.ndarray, n_p: np.ndarray):
    """Mean of the top ``n_p[k]`` relaxed scores of each of K lists.

    List k holds ``n[k]`` pairs first in ``relaxed`` (K, P). The top
    min(n_p, n) values, each clamped at 0, are summed over a fixed width of
    at least MAX_PAIRS_SCORE and divided by ``n_p``. Returns the scores,
    the sums and the number of pairs used, each (K,); n_p = 0 scores 0.
    """
    used = np.minimum(n_p, n)
    width = max(MAX_PAIRS_SCORE, int(used.max(initial=0)))
    slots = np.arange(relaxed.shape[1])
    ordered = -np.sort(np.where(slots < n[:, None], -relaxed, np.inf), axis=1)[:, :width]
    top = np.zeros((len(n), width))
    top[:, : ordered.shape[1]] = ordered
    top = np.where(np.arange(width) < used[:, None], np.maximum(top, 0.0), 0.0)
    raw = top.sum(axis=1)
    return np.where(n_p > 0, raw / np.maximum(n_p, 1), 0.0), raw, used


def relax(
    pairs: PairSet,
    template_a: MinutiaeTemplate,
    template_b: MinutiaeTemplate,
    params: RelaxationParams | None = None,
) -> RelaxedPairs:
    """Run synchronous relaxation iterations over the selected pairs.

    Every iteration computes all new scores from the full previous score
    vector, so results are independent of pair ordering. A single pair has
    no peers to relax against and keeps its initial score.
    """
    params = params or RelaxationParams()
    n = len(pairs)
    if n == 0:
        raise ValueError("cannot relax an empty pair set; callers should score 0")
    gamma = np.array([p.score for p in pairs], dtype=np.float64)
    rho = np.zeros((1, 1))
    if n > 1:
        rho = compatibility_matrix(pairs, template_a, template_b, params)
    # padded like the matcher's pair lists, so the relaxed values are the ones it uses
    width = max(n, PAIR_SLOTS)
    padded_rho = np.zeros((1, width, width))
    padded_rho[0, :n, :n] = rho
    padded_gamma = np.zeros((1, width))
    padded_gamma[0, :n] = gamma
    relaxed = relax_scores(padded_rho, padded_gamma, np.array([n]), params)[0, :n]
    out = tuple(
        RelaxedPair(p.row, p.col, float(g0), float(gi), p.source)
        for p, g0, gi in zip(pairs, gamma, relaxed)
    )
    return RelaxedPairs(pairs=out, rho=rho)


def match_score(relaxed: RelaxedPairs, n_p: int) -> tuple[float, list]:
    """Average of the top ``n_p`` relaxed scores (clamped at 0).

    Pairs sort by relaxed score descending, ties by (row, col). The sum of
    the top min(n_p, available) clamped values is divided by ``n_p`` so
    scores stay comparable across differing template sizes.
    """
    if n_p <= 0 or len(relaxed) == 0:
        return 0.0, []
    values = np.array([[p.relaxed for p in relaxed.pairs]])
    score, _, used = top_scores(values, np.array([len(relaxed)]), np.array([n_p]))
    ordered = sorted(relaxed.pairs, key=lambda p: (-p.relaxed, p.row, p.col))
    return float(score[0]), ordered[: int(used[0])]
