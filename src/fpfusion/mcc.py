"""Real-valued cylinder-code descriptors.

Each minutia gets a cylinder: an N_grid x N_grid grid of base cells laid
out in the minutia-aligned frame (rotated by the minutia direction,
spanning [-R, R] on each axis) crossed with N_D angular sections covering
directional differences in [-pi, pi). A cell value accumulates Gaussian
spatial x directional contributions from neighboring minutiae; the result
is rotation and translation invariant by construction.

The spatial kernel is cut at radius + 3 sigma from a cell center, so a
neighbor farther than 2 * radius + 3 sigma from the minutia reaches no cell
inside the radius. The kernel is evaluated only on inside cells x neighbors
within that distance (plus 1 px); cells beyond a neighbor's reach are never
evaluated and hold exact zeros, so the values equal those of the kernel
evaluated over all cells and neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import angular_difference, wrap_signed
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
        if self.grid < 2 or self.sections < 1 or self.min_neighbors < 1:
            raise ValueError("grid >= 2, sections >= 1, min_neighbors >= 1 required")

    @property
    def dim(self) -> int:
        return self.grid * self.grid * self.sections

    @property
    def cutoff(self) -> float:
        # Gaussian tails truncated at 3 sigma beyond the cylinder radius.
        return self.radius + 3.0 * self.sigma_spatial


@lru_cache(maxsize=None)
def _cell_offsets(cfg: CylinderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Local-frame cell centers (n_cells, 2) and the inside-radius mask,
    built once per configuration and read-only."""
    step = 2.0 * cfg.radius / cfg.grid
    coords = -cfg.radius + step * (np.arange(cfg.grid) + 0.5)
    px, py = np.meshgrid(coords, coords, indexing="ij")
    offsets = np.stack([px.ravel(), py.ravel()], axis=1)
    inside = np.hypot(offsets[:, 0], offsets[:, 1]) <= cfg.radius
    offsets.setflags(write=False)
    inside.setflags(write=False)
    return offsets, inside


@lru_cache(maxsize=None)
def _section_centers(cfg: CylinderConfig) -> np.ndarray:
    centers = -math.pi + (np.arange(cfg.sections) + 0.5) * (2.0 * math.pi / cfg.sections)
    centers.setflags(write=False)
    return centers


def _cylinder(t: MinutiaeTemplate, i: int, cfg: CylinderConfig) -> tuple[np.ndarray, bool]:
    """The flattened cells of minutia ``i``'s cylinder and its validity (enough
    neighbors within the cutoff). A minutia with no neighbor gets a zero row."""
    offsets, inside = _cell_offsets(cfg)
    m = t.minutiae[i]
    others = np.arange(len(t)) != i
    npos, nthetas = t.positions()[others], t.thetas()[others]

    # Only a neighbor within radius + cutoff of the minutia can reach an
    # inside cell; the 1 px margin keeps rounding from dropping one.
    dist = np.hypot(npos[:, 0] - m.x, npos[:, 1] - m.y)
    reach = dist <= cfg.radius + cfg.cutoff + 1.0

    # (n_cells, n_neighbors) spatial kernel, cut at radius + 3 sigma. It
    # is evaluated on inside cells x reachable neighbors and 0 elsewhere.
    spatial = np.zeros((len(offsets), len(npos)), dtype=np.float64)
    if reach.any():
        c, s = math.cos(m.theta), math.sin(m.theta)
        ox, oy = offsets[inside].T
        wx = m.x + c * ox + s * oy
        wy = m.y - s * ox + c * oy
        d = np.hypot(wx[:, None] - npos[reach, 0], wy[:, None] - npos[reach, 1])
        block = np.exp(-0.5 * (d / cfg.sigma_spatial) ** 2)
        block[d > cfg.cutoff] = 0.0
        spatial[np.ix_(inside, reach)] = block

    # (n_neighbors, sections) directional kernel on the wrapped difference.
    ddir = wrap_signed(m.theta - nthetas)
    gap = angular_difference(_section_centers(cfg)[None, :], ddir[:, None])
    directional = np.exp(-0.5 * (gap / cfg.sigma_direction) ** 2)

    values = spatial @ directional
    valid = int((dist <= cfg.cutoff).sum()) >= cfg.min_neighbors and bool(values.any())
    return values.ravel(), valid


def build_mcc_set(t: MinutiaeTemplate, cfg: CylinderConfig | None = None) -> DescriptorSet:
    """One cylinder per minutia, in template order."""
    cfg = cfg or CylinderConfig()
    vectors = np.zeros((len(t), cfg.dim), dtype=np.float64)
    valid = np.zeros(len(t), dtype=bool)
    for i in range(len(t)):
        vectors[i], valid[i] = _cylinder(t, i, cfg)
    return DescriptorSet(vectors=vectors, valid=valid)
