"""Real-valued cylinder-code descriptors.

Each minutia gets a cylinder: an N_S x N_S grid of base cells laid
out in the minutia-aligned frame (rotated by the minutia direction,
spanning [-R, R] on each axis) crossed with N_D angular sections covering
directional differences in [-pi, pi). A cell value accumulates Gaussian
spatial x directional contributions from neighboring minutiae; the result
is rotation and translation invariant by construction.

Only the cells whose centers lie within the radius belong to the cylinder
(cells outside it are invalid and would always hold 0), so a row holds
inside cells x N_D values, 208 x 6 = 1248 (``DIM``): the inside cells
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
a reachable pair's offsets are bounded by the reach, ~169 px, so they
square to finite doubles, and one whose square underflows gives a kernel
of exactly 1. The minutia x neighbor distance that decides reach and
validity stays on hypot.

The reachable (minutia, neighbor) pairs come from one list, as the
embeddings' do: ``geometry.neighbor_pairs``. The directional kernels are
taken once for all pairs; the spatial kernel in place on the pairs of a
group of minutiae at a time, as one contiguous (cells, group pairs) array.
Minutia i's cylinder is its own (cells, k_i) @ (k_i, sections) product
over its k_i reachable neighbors in template order, so its values are
those of building the cylinders one by one.

Leaving out the unreachable neighbors' zero columns keeps the bits of the
product over all n - 1 neighbors where the BLAS kernel sums the same terms
in the same order: at the 6 sections under OpenBLAS's SkylakeX, Haswell,
Sandybridge and Prescott kernels, except where n - 1 exceeds the kernel's
block of the inner dimension (256 neighbors under Haswell and Sandybridge,
128 under Prescott).
"""

from __future__ import annotations

import math

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import circular_bins, neighbor_pairs, wrap_signed
from fpfusion.templates import MinutiaeTemplate


# The method's fixed parameters (Cappelli, Ferrara, Maltoni, "Minutia
# Cylinder-Code", IEEE TPAMI 32(12), 2010): radius R = 70 px, N_S = 16
# cells per side, N_D = 6 angular sections, spatial std sigma_S = 9.33 px,
# directional std sigma_D = 0.698 rad (~40 degrees), and min_M = 2
# neighbors within the cutoff for a valid cylinder.
RADIUS = 70.0
GRID = 16
SECTIONS = 6
SIGMA_SPATIAL = 9.33
SIGMA_DIRECTION = 0.698
MIN_NEIGHBORS = 2
# Gaussian tails truncated at 3 sigma beyond the cylinder radius.
CUTOFF = RADIUS + 3.0 * SIGMA_SPATIAL


def _inside_cells() -> np.ndarray:
    """Local-frame centers (cells, 2) of the grid cells inside the radius,
    in grid order, read-only."""
    step = 2.0 * RADIUS / GRID
    coords = -RADIUS + step * (np.arange(GRID) + 0.5)
    px, py = np.meshgrid(coords, coords, indexing="ij")
    offsets = np.stack([px.ravel(), py.ravel()], axis=1)
    offsets = offsets[np.hypot(offsets[:, 0], offsets[:, 1]) <= RADIUS]
    offsets.setflags(write=False)
    return offsets


CELL_OFFSETS = _inside_cells()
DIM = len(CELL_OFFSETS) * SECTIONS


# Minutiae whose spatial kernels are evaluated in one in-place pass; one
# pass over the whole template was no faster on enrollment and raised the
# peak memory of dense queries.
_GROUP = 16


def build_mcc_set(t: MinutiaeTemplate) -> DescriptorSet:
    """One cylinder per minutia, in template order.

    Row i is minutia i's flattened cells. It is valid when at least
    ``MIN_NEIGHBORS`` other minutiae lie within the cutoff and a cell is
    nonzero; a minutia with no neighbor gets a zero row.
    """
    n, cells = len(t), len(CELL_OFFSETS)
    ox, oy = CELL_OFFSETS[:, 0:1], CELL_OFFSETS[:, 1:2]
    xy, thetas = t.positions(), t.thetas()

    # Only a neighbor within radius + cutoff of the minutia can reach a
    # cell; the 1 px margin keeps rounding from dropping one.
    rows, cols, pair_dx, pair_dy, dist, start = neighbor_pairs(xy, RADIUS + CUTOFF + 1.0)
    # every neighbor within the cutoff is within reach
    valid = np.bincount(rows[dist <= CUTOFF], minlength=n) >= MIN_NEIGHBORS
    # (pairs, sections) directional kernel on the wrapped difference.
    ddir = wrap_signed(thetas[rows] - thetas[cols])
    directional = circular_bins(ddir, SECTIONS, SIGMA_DIRECTION)
    # Each pair's offset in its minutia's frame, (u, v) = R^T (dx, dy) with
    # R the frame's rotation: a cell center p_i + R o lies |o - (u, v)| from
    # the neighbor. math.cos and math.sin, not their numpy forms, which may
    # differ by an ulp.
    c = np.array([math.cos(theta) for theta in thetas.tolist()])[rows]
    s = np.array([math.sin(theta) for theta in thetas.tolist()])[rows]
    u = c * pair_dx - s * pair_dy
    v = s * pair_dx + c * pair_dy
    scale = -0.5 / (SIGMA_SPATIAL * SIGMA_SPATIAL)
    cut = CUTOFF * CUTOFF
    # Squared distances and spatial kernel of a group, each a contiguous
    # (cells, group pairs) view of one allocation: a column slice of a wider
    # buffer would make numpy's elementwise loops run row by row.
    width = max((start[min(lo + _GROUP, n)] - start[lo] for lo in range(0, n, _GROUP)), default=0)
    buffer = np.empty(2 * cells * width)
    # after the scratch buffer, which then frees into a hole, not the heap top
    vectors = np.zeros((n, DIM), dtype=np.float64)
    cylinders = vectors.reshape(n, cells, SECTIONS)
    for glo in range(0, n, _GROUP):
        ghi = min(glo + _GROUP, n)
        a, b = start[glo], start[ghi]
        q, kernel = buffer[: 2 * cells * (b - a)].reshape(2, cells, b - a)
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
