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
A cell's value is a sum over the neighbors within that distance (plus
1 px), MCC's N_p: a neighbor beyond reach is never evaluated and takes no
part in any sum, so adding or removing one changes no other cylinder's
bits.

The world cell center p_i + R o lies |o - R^T (p_j - p_i)| from neighbor j,
so each reachable neighbor's offset is rotated into the minutia's frame
once, as (u, v), and the kernel is the Gaussian of the squared distance
(ox - u)^2 + (oy - v)^2, cut where it exceeds the squared cutoff. No square
root is taken, and no world-frame cell center is formed, so the values do
not lose precision far from the image origin. The squares are safe because
a reachable pair's offsets are bounded by the configured reach: with
radius and sigma_spatial in [1e-6, 1e6] px an offset is at most ~6e6 px,
so it squares to a finite double, and one whose square underflows gives a
kernel of exactly 1. The minutia x neighbor distance that decides reach and
validity stays on hypot.

A template's minutia x neighbor geometry (offsets, distances, reach,
reachable pairs) is computed once for all minutiae, and the directional
kernels once for all reachable pairs. The spatial kernel is evaluated in
place on the reachable pairs of a group of minutiae at a time, as one
contiguous (cells, group pairs) array, and minutia i's cylinder is its own
(cells, k_i) @ (k_i, sections) product over its k_i reachable neighbors in
template order, so its values are those of building the cylinders one by
one.

Leaving out the unreachable neighbors' zero columns keeps the bits of the
product over all n - 1 neighbors where the BLAS kernel sums the same terms
in the same order: at 5, 6 (the default) and 8 sections under OpenBLAS's
SkylakeX, Haswell, Sandybridge and Prescott kernels. It rounds differently,
by a few ulps, at 1-4 sections under SkylakeX and at 1 section under the
other three, and wherever n - 1 exceeds the kernel's block of the inner
dimension (256 neighbors under Haswell and Sandybridge, 128 under Prescott).
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


# Minutiae whose spatial kernels are evaluated in one in-place pass; one
# pass over the whole template was no faster on enrollment and raised the
# peak memory of dense queries.
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
    ox, oy = offsets[:, 0:1], offsets[:, 1:2]
    xy, thetas = t.positions(), t.thetas()

    # Row i holds the other minutiae in template order: (n, n - 1).
    slot = np.arange(n - 1)
    neighbor = slot + (slot >= np.arange(n)[:, None])
    dx = xy[neighbor, 0] - xy[:, 0:1]
    dy = xy[neighbor, 1] - xy[:, 1:2]
    dist = np.hypot(dx, dy)
    # Only a neighbor within radius + cutoff of the minutia can reach a
    # cell; the 1 px margin keeps rounding from dropping one.
    reach = dist <= cfg.radius + cfg.cutoff + 1.0
    valid = (dist <= cfg.cutoff).sum(axis=1) >= cfg.min_neighbors

    # Reachable (minutia, neighbor) pairs, in template order; minutia i's are
    # start[i]:start[i + 1].
    rows, cols = np.nonzero(reach)
    start = np.searchsorted(rows, np.arange(n + 1)).tolist()
    # (pairs, sections) directional kernel on the wrapped difference.
    ddir = wrap_signed(thetas[rows] - thetas[neighbor[rows, cols]])
    directional = circular_bins(ddir, cfg.sections, cfg.sigma_direction)
    # Each pair's offset in its minutia's frame, (u, v) = R^T (dx, dy) with
    # R the frame's rotation: a cell center p_i + R o lies |o - (u, v)| from
    # the neighbor. math.cos and math.sin, not their numpy forms, which may
    # differ by an ulp.
    c = np.array([math.cos(theta) for theta in thetas.tolist()])[rows]
    s = np.array([math.sin(theta) for theta in thetas.tolist()])[rows]
    pair_dx, pair_dy = dx[rows, cols], dy[rows, cols]
    u = c * pair_dx - s * pair_dy
    v = s * pair_dx + c * pair_dy
    scale = -0.5 / (cfg.sigma_spatial * cfg.sigma_spatial)
    cut = cfg.cutoff * cfg.cutoff
    # Squared distances and spatial kernel of a group, each a contiguous
    # (cells, group pairs) view of one allocation: a column slice of a wider
    # buffer would make numpy's elementwise loops run row by row.
    width = max(start[min(lo + _GROUP, n)] - start[lo] for lo in range(0, n, _GROUP))
    buffer = np.empty(2 * len(offsets) * width)
    cylinders = vectors.reshape(n, len(offsets), cfg.sections)
    for glo in range(0, n, _GROUP):
        ghi = min(glo + _GROUP, n)
        a, b = start[glo], start[ghi]
        q, kernel = buffer[: 2 * len(offsets) * (b - a)].reshape(2, len(offsets), b - a)
        # q = (ox - u)^2 + (oy - v)^2, then exp(q * (-0.5 / sigma^2))
        np.subtract(ox, u[a:b], out=q)
        np.square(q, out=q)
        np.subtract(oy, v[a:b], out=kernel)
        np.square(kernel, out=kernel)
        q += kernel
        np.multiply(q, scale, out=kernel)
        np.exp(kernel, out=kernel)
        # cut at radius + 3 sigma: a finite kernel times False is exactly 0
        np.multiply(kernel, q <= cut, out=kernel)
        for i in range(glo, ghi):
            # (cells, k_i) @ (k_i, sections) over minutia i's reachable
            # neighbors; with none, the product is the zero cylinder
            p0, p1 = start[i], start[i + 1]
            np.matmul(kernel[:, p0 - a : p1 - a], directional[p0:p1], out=cylinders[i])
    valid &= vectors.any(axis=1)
    return DescriptorSet(vectors=vectors, valid=valid)
