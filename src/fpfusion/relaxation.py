"""Relaxation of selected pairs into a global match score.

Each pair's score is iteratively mixed with the compatibility-weighted
mean of all other pairs' scores; geometrically inconsistent pairs decay
while mutually consistent ones persist. The final score averages the top
pairs after relaxation. The compatibility sigmoids, the distance scale,
the mixing weight and the iteration count are fixed constants; the last
two are MCC's w_R and n_rel (Cappelli, Ferrara and Maltoni, "Minutia
Cylinder-Code", 2010), which the matcher passes to ``relax_scores``.
"""

from __future__ import annotations

import numpy as np

from fpfusion.geometry import angular_difference
from fpfusion.pairing import MAX_PAIRS_SCORE, MAX_PAIRS_SELECT

# Pair slots of one relaxation: the feature channel relaxes the union of two
# selections. Sums run over this fixed width, so a score never depends on
# which other lists share its batch.
PAIR_SLOTS = 2 * MAX_PAIRS_SELECT

# Centres and slopes of the compatibility sigmoids of the distance,
# direction-difference and radial-angle discrepancies (the distance one
# divided by DISTANCE_SCALE first: mu[0] = 0.0416 is ~4.16 px). A pair keeps
# RELAX_WEIGHT (w_R) of its own score in each of RELAX_ITERATIONS (n_rel).
_MU = (0.0416, 0.7853, 0.2094)
_TAU = (-30.0, -9.0, -16.8)
DISTANCE_SCALE = 100.0
RELAX_WEIGHT = 0.5
RELAX_ITERATIONS = 5


def side_geometry(xy: np.ndarray, theta: np.ndarray) -> tuple:
    """Spatial distance, direction difference and radial angle of every
    ordered pair of minutiae on one side.

    ``xy`` is (..., n, 2) and ``theta`` (..., n); each result is (..., n, n).
    The radial angle of (t, k) is the angle between t's direction and the
    ray from t to k; co-located minutiae take 0.
    """
    dx = xy[..., None, :, 0] - xy[..., :, None, 0]
    dy = xy[..., :, None, 1] - xy[..., None, :, 1]
    turn = angular_difference(theta[..., :, None], theta[..., None, :])
    radial = angular_difference(theta[..., :, None], np.arctan2(dy, dx))
    radial[(dx == 0) & (dy == 0)] = 0.0
    return np.hypot(dx, dy), turn, radial


def compatibilities(side_a: tuple, side_b: tuple) -> np.ndarray:
    """Compatibilities of pair lists from their two sides' ``side_geometry``.

    Entry (p, q) compares pairs p and q of a list: the discrepancies of
    their A-side and B-side distance (divided by ``DISTANCE_SCALE``),
    direction difference and radial angle pass through the three sigmoids.
    The diagonal is unused.

    Both sides' direction differences and radial angles lie in [0, pi], so
    the absolute difference of two is their circular distance, exactly.
    """
    d1 = np.abs(side_a[0] - side_b[0]) / DISTANCE_SCALE
    d2 = np.abs(side_a[1] - side_b[1])
    d3 = np.abs(side_a[2] - side_b[2])
    out = 1.0
    with np.errstate(over="ignore"):  # a far discrepancy's 1 / (1 + inf) is the exact 0
        for d, mu, tau in zip((d1, d2, d3), _MU, _TAU):
            out = out / (1.0 + np.exp(-tau * (d - mu)))
    return out


def relax_scores(
    rho: np.ndarray, gamma: np.ndarray, n: np.ndarray, weight: float, iterations: int
) -> np.ndarray:
    """Synchronous relaxation of K pair lists at once.

    Initial scores ``gamma`` (K, P) hold list k's ``n[k]`` pairs first.
    ``rho`` holds only the live compatibility rows, (n.sum(), P) and
    list-major: row j is pair p < n[k] of list k, its entry q the
    compatibility of pairs p and q; ``rho`` is overwritten. Each of
    ``iterations`` iterations mixes every score, at ``weight``, with the
    compatibility-weighted mean of the other live pairs' previous scores,
    summed over all P slots of the row (dead slots add +0), so a score
    never depends on which lists share the call.
    A one-pair list has no peers and keeps its initial score; values past
    ``n[k]`` are undefined.
    """
    width = gamma.shape[1]
    slots = np.arange(width)
    live = slots < n[:, None]
    at = np.flatnonzero(live)  # live slots, list-major
    owner = at // width
    others = np.maximum(n - 1, 1)[owner]
    peers = np.multiply(rho, live[owner] & (slots != (at % width)[:, None]), out=rho)
    state = np.where(live, gamma, 0.0)
    for _ in range(iterations):
        mixed = np.take(state, owner, axis=0)
        support = np.multiply(peers, mixed, out=mixed).sum(axis=1) / others
        np.put(state, at, weight * np.take(state, at) + (1.0 - weight) * support)
    return np.where((n > 1)[:, None], state, gamma)


def top_scores(relaxed: np.ndarray, n: np.ndarray, n_p: np.ndarray):
    """Mean of the top ``n_p[k]`` relaxed scores of each of K lists.

    List k holds ``n[k]`` pairs first in ``relaxed`` (K, P), P at least
    MAX_PAIRS_SCORE, and ``n_p`` is at most MAX_PAIRS_SCORE. The top
    min(n_p, n) values, each clamped at 0, are summed over the fixed
    MAX_PAIRS_SCORE width and divided by ``n_p``. Returns the scores, the
    sums and the number of pairs used, each (K,); n_p = 0 scores 0.
    """
    used = np.minimum(n_p, n)
    slots = np.arange(relaxed.shape[1])
    top = -np.sort(np.where(slots < n[:, None], -relaxed, np.inf), axis=1)[:, :MAX_PAIRS_SCORE]
    top = np.where(slots[:MAX_PAIRS_SCORE] < used[:, None], np.maximum(top, 0.0), 0.0)
    raw = top.sum(axis=1)
    return np.where(n_p > 0, raw / np.maximum(n_p, 1), 0.0), raw, used
