import math
from typing import NamedTuple

import numpy as np
import pytest

from fpfusion.evaluation import Gallery
from fpfusion.fusion import CHANNELS, match_gallery
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
