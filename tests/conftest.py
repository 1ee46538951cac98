import math

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
