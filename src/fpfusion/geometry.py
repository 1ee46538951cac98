"""Angular and spatial primitives shared by descriptors and relaxation.

Conventions used everywhere in this package:

* Image coordinates: x grows rightward, y grows downward (500 dpi assumed).
* Angles are counter-clockwise in fingerprint coordinates, i.e. the ray from
  a to b has angle ``atan2(a.y - b.y, b.x - a.x)``.
* A rigid rotation by ``alpha`` maps an offset (dx, dy) to
  ``(cos(a)*dx + sin(a)*dy, -sin(a)*dx + cos(a)*dy)`` and shifts every
  minutia direction by ``alpha``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    wrapped = theta % TWO_PI
    # a tiny negative angle rounds up to exactly 2*pi
    return 0.0 if wrapped == TWO_PI else wrapped


def wrap_signed(theta):
    """Wrap an angle (scalar or array) into [-pi, pi)."""
    wrapped = (theta + math.pi) % TWO_PI
    # a tiny negative dividend rounds up to exactly 2*pi, which is -pi
    return np.where(wrapped == TWO_PI, 0.0, wrapped) - math.pi


def angular_difference(theta1, theta2):
    """Circular distance between two angles, in [0, pi].

    Accepts scalars or numpy arrays; inputs need not be pre-normalized.
    """
    d = np.abs(np.asarray(theta1) - np.asarray(theta2))
    # fmod equals % on a non-negative dividend, bit for bit, and is faster;
    # it returns x itself for 0 <= x < 2*pi, so it is skipped when every
    # difference is that small (NaN fails the test and takes the fmod)
    if d.size and not d.max() < TWO_PI:
        d = np.fmod(d, TWO_PI)
    out = np.minimum(d, TWO_PI - d)
    if out.ndim == 0:
        return float(out)
    return out


def circular_bins(values: np.ndarray, bins: int, sigma: float) -> np.ndarray:
    """(..., bins) Gaussian soft assignment of angles to ``bins`` circular
    bins centered at -pi + (k + 1/2) * 2 * pi / bins."""
    centers = -math.pi + (np.arange(bins) + 0.5) * (TWO_PI / bins)
    # Computed as (bins, ...), so each elementwise pass runs over all values
    # of a bin at once rather than ``bins`` at a time; |c - x| is |x - c|.
    d = angular_difference(centers.reshape((bins,) + (1,) * values.ndim), values)
    return np.ascontiguousarray(np.moveaxis(np.exp(-0.5 * (d / sigma) ** 2), 0, -1))


def neighbor_pairs(xy: np.ndarray, reach: float):
    """Every ordered pair (i, j), i != j, of the (n, 2) points ``xy`` at most
    ``reach`` apart, i-major with each point's neighbors in template order,
    as (i, j, dx, dy, dist, start): dx = x_j - x_i, dy = y_j - y_i, dist =
    hypot(dx, dy), and point i's pairs are start[i]:start[i + 1] (a list)."""
    dx = xy[None, :, 0] - xy[:, None, 0]
    dy = xy[None, :, 1] - xy[:, None, 1]
    # hypot(dx, dy) >= max(|dx|, |dy|): a pair outside the box is not near
    box = (np.abs(dx) <= reach) & (np.abs(dy) <= reach)
    np.fill_diagonal(box, False)
    flat = np.flatnonzero(box)
    dx, dy = dx.take(flat), dy.take(flat)
    dist = np.hypot(dx, dy)
    near = dist <= reach
    i, j = np.divmod(flat[near], len(xy))
    start = np.searchsorted(i, np.arange(len(xy) + 1)).tolist()
    return i, j, dx[near], dy[near], dist[near], start


def rotate_offsets(dx, dy, alpha: float):
    """Rotate offset vectors by ``alpha`` under the package's y-down convention."""
    c, s = math.cos(alpha), math.sin(alpha)
    return c * dx + s * dy, -s * dx + c * dy
