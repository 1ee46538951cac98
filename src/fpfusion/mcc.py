"""Real-valued cylinder-code descriptors.

Each minutia gets a cylinder: an N_grid x N_grid grid of base cells laid
out in the minutia-aligned frame (rotated by the minutia direction,
spanning [-R, R] on each axis) crossed with N_D angular sections covering
directional differences in [-pi, pi). A cell value accumulates Gaussian
spatial x directional contributions from neighboring minutiae; the result
is rotation and translation invariant by construction.

Only the cells whose centers lie within the radius belong to the cylinder
(cells outside it are invalid and would always hold 0), so a row holds
inside cells x N_D values: 208 x 6 = 1248 at the defaults, the inside cells
in grid order (row-major over the grid) and each cell's N_D sections
consecutive.

The spatial kernel is cut at radius + 3 sigma from a cell center, so a
neighbor farther than 2 * radius + 3 sigma from the minutia reaches no cell.
The kernel is evaluated only on neighbors within that distance (plus 1 px);
a neighbor beyond reach is never evaluated and contributes exact zeros, so
the values equal those of the kernel evaluated over all neighbors.

A reachable neighbor's distance to a cell center is sqrt(dx * dx + dy * dy),
several times cheaper than hypot(dx, dy) and different only in the last
bits. The squares are safe because a reachable pair's offsets are bounded
by the configured reach: with radius and sigma_spatial in [1e-6, 1e6] px
an offset is at most ~6e6 px, so it squares to a finite double, and one
whose square underflows gives a kernel of exactly 1 either way. The
minutia x neighbor distance that decides reach and validity stays on hypot.

A template's minutia x neighbor geometry (distances, reach, directional
kernels, cell centers, reachable pairs) is computed once for all minutiae.
The spatial kernel is evaluated in place on the reachable pairs of a group of
minutiae at a time, then scattered into a zero (minutiae, cells, n - 1) stack
and multiplied by the directional kernels in one stacked matmul, so each
minutia's cylinder is still its own (cells, n - 1) @ (n - 1, sections)
product and its values are those of building the cylinders one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import circular_bins, wrap_signed
from fpfusion.templates import MinutiaeTemplate


@dataclass(frozen=True)
class CylinderConfig:
    """Cylinder geometry and kernel parameters.

    Defaults follow common cylinder-code conventions: radius 70 px, 16x16
    base cells, 6 angular sections, spatial std 9.33 px, directional std
    0.698 rad (~40 degrees).
    """

    radius: float = 70.0
    grid: int = 16
    sections: int = 6
    sigma_spatial: float = 9.33
    sigma_direction: float = 0.698
    min_neighbors: int = 2

    def __post_init__(self):
        widths = (self.radius, self.sigma_spatial, self.sigma_direction)
        if not all(math.isfinite(v) and v > 0 for v in widths):
            raise ValueError("radius and kernel widths must be finite and positive")
        # the pixel scale within which the squared cell offsets are exact
        # enough (see the module docstring)
        if not (1e-6 <= self.radius <= 1e6 and 1e-6 <= self.sigma_spatial <= 1e6):
            raise ValueError("radius and sigma_spatial must lie in [1e-06, 1e+06] px")
        if self.grid < 2 or self.sections < 1 or self.min_neighbors < 1:
            raise ValueError("grid >= 2, sections >= 1, min_neighbors >= 1 required")

    @property
    def dim(self) -> int:
        return len(_cell_offsets(self)) * self.sections

    @property
    def cutoff(self) -> float:
        # Gaussian tails truncated at 3 sigma beyond the cylinder radius.
        return self.radius + 3.0 * self.sigma_spatial


@lru_cache(maxsize=None)
def _cell_offsets(cfg: CylinderConfig) -> np.ndarray:
    """Local-frame centers (cells, 2) of the grid cells inside the radius,
    in grid order, built once per configuration and read-only."""
    step = 2.0 * cfg.radius / cfg.grid
    coords = -cfg.radius + step * (np.arange(cfg.grid) + 0.5)
    px, py = np.meshgrid(coords, coords, indexing="ij")
    offsets = np.stack([px.ravel(), py.ravel()], axis=1)
    offsets = offsets[np.hypot(offsets[:, 0], offsets[:, 1]) <= cfg.radius]
    offsets.setflags(write=False)
    return offsets


# Minutiae whose spatial kernels are scattered and multiplied together. It
# bounds the zero (chunk, cells, n - 1) stack at 4 * cells * (n - 1) doubles;
# a chunk of 16 was no faster on default templates, slower on dense ones, and
# its larger stack raised the peak memory of enrolling a gallery.
_CHUNK = 4
# Minutiae whose spatial kernels are evaluated in one in-place pass, a
# multiple of _CHUNK; one pass over the whole template was no faster on
# enrollment and raised the peak memory of dense queries.
_GROUP = 16


def build_mcc_set(t: MinutiaeTemplate, cfg: CylinderConfig | None = None) -> DescriptorSet:
    """One cylinder per minutia, in template order.

    Row i is minutia i's flattened cells. It is valid when at least
    ``min_neighbors`` other minutiae lie within the cutoff and a cell is
    nonzero; a minutia with no neighbor gets a zero row.
    """
    cfg = cfg or CylinderConfig()
    n = len(t)
    vectors = np.zeros((n, cfg.dim), dtype=np.float64)
    if n == 0:
        return DescriptorSet(vectors=vectors, valid=np.zeros(0, dtype=bool))
    offsets = _cell_offsets(cfg)
    ox, oy = offsets.T
    xy, thetas = t.positions(), t.thetas()

    # Row i holds the other minutiae in template order: (n, n - 1).
    slot = np.arange(n - 1)
    neighbor = slot + (slot >= np.arange(n)[:, None])
    nx, ny = xy[neighbor, 0], xy[neighbor, 1]
    dist = np.hypot(nx - xy[:, 0:1], ny - xy[:, 1:2])
    # Only a neighbor within radius + cutoff of the minutia can reach a
    # cell; the 1 px margin keeps rounding from dropping one.
    reach = dist <= cfg.radius + cfg.cutoff + 1.0
    valid = (dist <= cfg.cutoff).sum(axis=1) >= cfg.min_neighbors

    # (n, n - 1, sections) directional kernel on the wrapped difference.
    ddir = wrap_signed(thetas[:, None] - thetas[neighbor])
    directional = circular_bins(ddir, cfg.sections, cfg.sigma_direction)

    # Cell centers in world coordinates, (n, cells). math.cos
    # and math.sin, not their numpy forms, which may differ by an ulp.
    c = np.array([math.cos(theta) for theta in thetas.tolist()])[:, None]
    s = np.array([math.sin(theta) for theta in thetas.tolist()])[:, None]
    wx = xy[:, 0:1] + c * ox + s * oy
    wy = xy[:, 1:2] - s * ox + c * oy

    # Reachable (minutia, neighbor) pairs; minutia i's are start[i]:start[i + 1].
    rows, cols = np.nonzero(reach)
    start = np.searchsorted(rows, np.arange(n + 1)).tolist()
    pair_x, pair_y = nx[rows, cols, None], ny[rows, cols, None]
    # (pairs, cells) distances and spatial kernel of the largest group.
    width = max(start[min(lo + _GROUP, n)] - start[lo] for lo in range(0, n, _GROUP))
    buffers = np.empty((2, width, len(offsets)))
    # (minutiae, cells, n - 1) spatial kernel of a chunk, 0 where not
    # reachable; zeroed again between chunks.
    spatial = np.zeros((min(n, _CHUNK), len(offsets), n - 1), dtype=np.float64)
    cylinders = vectors.reshape(n, len(offsets), cfg.sections)
    for glo in range(0, n, _GROUP):
        ghi = min(glo + _GROUP, n)
        a, b = start[glo], start[ghi]
        d, kernel = buffers[:, : b - a]
        # sqrt(dx * dx + dy * dy), then exp(-0.5 * (d / sigma) ** 2); take's
        # "clip" mode, unlike its default, does not buffer ``out``.
        np.take(wx, rows[a:b], axis=0, out=d, mode="clip")
        d -= pair_x[a:b]
        np.take(wy, rows[a:b], axis=0, out=kernel, mode="clip")
        kernel -= pair_y[a:b]
        np.square(d, out=d)
        np.square(kernel, out=kernel)
        d += kernel
        np.sqrt(d, out=d)
        np.divide(d, cfg.sigma_spatial, out=kernel)
        np.square(kernel, out=kernel)
        kernel *= -0.5
        np.exp(kernel, out=kernel)
        # cut at radius + 3 sigma: a finite kernel times False is exactly 0
        np.multiply(kernel, d <= cfg.cutoff, out=kernel)
        for lo in range(glo, ghi, _CHUNK):
            hi = min(lo + _CHUNK, n)
            stack = spatial[: hi - lo]
            p, q = start[lo], start[hi]
            if q > p:
                stack[rows[p:q] - lo, :, cols[p:q]] = kernel[p - a : q - a]
            # Stacked, so each minutia keeps its own (cells, n - 1) @ (n - 1,
            # sections) product.
            np.matmul(stack, directional[lo:hi], out=cylinders[lo:hi])
            if q > p and hi < n:
                stack.fill(0.0)
    valid &= vectors.any(axis=1)
    return DescriptorSet(vectors=vectors, valid=valid)
