import math
from typing import NamedTuple

import numpy as np
import pytest

from fpfusion.evaluation import Gallery
from fpfusion.fusion import CHANNELS, match_gallery
from fpfusion.geometry import angular_difference
from fpfusion.synthetic import SynthConfig, finger_rng, generate_finger, perturb_to_latent
from fpfusion.templates import Minutia, MinutiaeTemplate

def random_template(rng, n=12, extent=300.0, tid="t", min_spacing=10.0):
    """Spaced random template for descriptor/matcher tests."""
    minutiae = []
    while len(minutiae) < n:
        x = float(rng.uniform(0, extent))
        y = float(rng.uniform(0, extent))
        if all(math.hypot(x - m.x, y - m.y) >= min_spacing for m in minutiae):
            minutiae.append(Minutia(x, y, float(rng.uniform(0, 2 * math.pi))))
    return MinutiaeTemplate(tid, tuple(minutiae))


def rotate_template(t, alpha, tx=0.0, ty=0.0, center=(0.0, 0.0)):
    """Independent rigid-transform oracle (y-down image convention)."""
    c, s = math.cos(alpha), math.sin(alpha)
    cx, cy = center
    out = []
    for m in t.minutiae:
        dx, dy = m.x - cx, m.y - cy
        out.append(
            Minutia(
                cx + c * dx + s * dy + tx,
                cy - s * dx + c * dy + ty,
                m.theta + alpha,
                m.quality,
            )
        )
    return MinutiaeTemplate(t.id, tuple(out), t.width, t.height)


def padded(a, shape, fill=0.0):
    """``a`` in the leading corner of a (1, *shape) array of ``fill``: one
    list or matrix of a padded kernel stack."""
    out = np.full((1, *shape), fill)
    out[(0, *(slice(0, k) for k in np.shape(a)))] = a
    return out


def far_apart_pair():
    """A 6-minutia query and a gallery template equal to it but for its last
    three minutiae, moved 3,000 px in x: pairs across the move differ in
    distance by ~3,000 px, where the distance sigmoid's exponent overflows."""
    rows = [(0, 0, 0.1), (20, 5, 1.0), (10, 30, 2.0), (200, 0, 0.7), (225, 10, 2.0), (205, 28, 3.0)]
    moved = rows[:3] + [(x + 3000, y, theta) for x, y, theta in rows[3:]]
    return tuple(
        MinutiaeTemplate(tid, tuple(Minutia(*m) for m in ms))
        for tid, ms in (("q", rows), ("g", moved))
    )


def seeded_templates():
    """Seeded default, latent and dense templates: four fingers of the
    default ``SynthConfig``, their latents, and one 80-120 minutia finger."""
    default = SynthConfig(seed=3)
    dense = SynthConfig(seed=3, min_minutiae=80, max_minutiae=120, extent=(700.0, 700.0))
    fingers = [generate_finger(finger_rng(default, k), default) for k in range(4)]
    latents = [perturb_to_latent(f, np.random.default_rng([3, k]))[0] for k, f in enumerate(fingers)]
    return fingers + latents + [generate_finger(finger_rng(dense, 0), dense)]


# Six minutiae spanning ~1e200 px: a finite span, but offsets whose squares
# overflow to inf.
HUGE_SPAN_ROWS = (
    (0.0, 0.0, 0.1),
    (20.0, 5.0, 1.0),
    (10.0, 30.0, 2.0),
    (1e200, 0.0, 0.7),
    (1e200, 25.0, 2.0),
    (0.0, 1e200, 3.0),
)


# Scalar references the kernels are checked against.


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


def euclidean_distance(a, b) -> float:
    """Euclidean distance between the positions of two minutiae."""
    return math.hypot(a.x - b.x, a.y - b.y)


def direction_difference(a, b) -> float:
    """Circular distance between two minutia directions, in [0, pi]."""
    return angular_difference(a.theta, b.theta)


def radial_angle(a, b) -> float:
    """Angle between a's direction and the ray from a to b, in [0, pi].

    Asymmetric: radial_angle(a, b) and radial_angle(b, a) generally differ.
    Co-located minutiae return 0 (synthetic perturbation may collide points;
    matching must not abort).
    """
    dy = a.y - b.y
    dx = b.x - a.x
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return angular_difference(a.theta, math.atan2(dy, dx))


# The sigmoid centres and slopes of the method, held apart from the engine's
# constants so that any drift in those shows.
MU = (0.0416, 0.7853, 0.2094)
TAU = (-30.0, -9.0, -16.8)


def sigmoid_product(d1, d2, d3, tau=TAU):
    """Product of the three compatibility sigmoids of discrepancies d1, d2, d3."""
    out = 1.0
    with np.errstate(over="ignore"):
        for d, mu, slope in zip((d1, d2, d3), MU, tau):
            out = out / (1.0 + np.exp(-slope * (d - mu)))
    return out


def two_pass_side_geometry(xy, theta):
    """``relaxation.side_geometry`` with each pairwise offset formed twice,
    once for the distance and once for the radial angle, in the opposite
    sign for x: the form the one-pass geometry must equal bit for bit."""
    spread = np.hypot(
        xy[..., :, None, 0] - xy[..., None, :, 0], xy[..., :, None, 1] - xy[..., None, :, 1]
    )
    turn = angular_difference(theta[..., :, None], theta[..., None, :])
    dy = xy[..., :, None, 1] - xy[..., None, :, 1]
    dx = xy[..., None, :, 0] - xy[..., :, None, 0]
    radial = angular_difference(theta[..., :, None], np.arctan2(dy, dx))
    radial[(dx == 0) & (dy == 0)] = 0.0
    return spread, turn, radial


def pair_compatibility(
    t_pair: tuple[Minutia, Minutia],
    k_pair: tuple[Minutia, Minutia],
    tau=TAU,
) -> float:
    """Geometric compatibility of two minutia pairs, in (0, 1).

    Compares, between the A side and the B side: the spatial distance
    (scaled by 1/100, the default distance scale), the direction difference
    and the radial angle of the two involved minutiae; each discrepancy
    passes through a sigmoid of slope ``tau`` and the three factors multiply.
    """
    a_t, b_t = t_pair
    a_k, b_k = k_pair
    d1 = abs(euclidean_distance(a_t, a_k) - euclidean_distance(b_t, b_k))
    d1 /= 100.0
    d2 = abs(
        angular_difference(direction_difference(a_t, a_k), direction_difference(b_t, b_k))
    )
    d3 = abs(angular_difference(radial_angle(a_t, a_k), radial_angle(b_t, b_k)))
    return float(sigmoid_product(d1, d2, d3, tau))


def relax_padded(rho, gamma, n, weight, iterations):
    """Relaxation of K zero-padded pair lists, (K, P, P) ``rho`` and (K, P)
    ``gamma``, each list's ``n[k]`` pairs first: the padded form the
    row-form ``relaxation.relax_scores`` must equal. ``rho`` is overwritten."""
    slots = np.arange(rho.shape[-1])
    live = slots[None, :] < n[:, None]
    peers = np.multiply(rho, live[:, None, :] & (slots[:, None] != slots[None, :]), out=rho)
    others = np.maximum(n - 1, 1)[:, None]
    w = weight
    relaxed = gamma
    product = np.empty_like(peers)
    for _ in range(iterations):
        support = np.multiply(peers, relaxed[:, None, :], out=product).sum(axis=2) / others
        relaxed = w * relaxed + (1.0 - w) * support
    return np.where((n > 1)[:, None], relaxed, gamma)


def live_rows(rho, n):
    """The live rows of a padded (K, P, P) ``rho``, list-major: the (n.sum(),
    P) input of ``relax_scores``."""
    return rho[np.arange(rho.shape[1]) < n[:, None]]


class PairScore(NamedTuple):
    score: float
    raw_sum: float
    n_pairs_used: int


def match_pair(ta, tb, emb_a=None, emb_b=None, cfg=None):
    """One template pair on every channel, scored as ``fpfusion match`` scores
    it: both sides prepared as queries, ``tb`` as a one-entry gallery.
    Embeddings default to the synthetic stand-in."""
    g = Gallery()
    query, entry = g.prepare_query(ta, emb_a), g.prepare_query(tb, emb_b)
    scores, raw, used = match_gallery(query, [entry], cfg)
    return {
        ch: PairScore(float(scores[k, 0]), float(raw[k, 0]), int(used[k, 0]))
        for k, ch in enumerate(CHANNELS)
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
