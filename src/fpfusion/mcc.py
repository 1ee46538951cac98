"""Real-valued cylinder-code descriptors.

Each minutia gets a cylinder: an N_grid x N_grid grid of base cells laid
out in the minutia-aligned frame (rotated by the minutia direction,
spanning [-R, R] on each axis) crossed with N_D angular sections covering
directional differences in [-pi, pi). A cell value accumulates Gaussian
spatial x directional contributions from neighboring minutiae; the result
is rotation and translation invariant by construction.
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
        if self.radius <= 0 or self.sigma_spatial <= 0 or self.sigma_direction <= 0:
            raise ValueError("radius and kernel widths must be positive")
        if self.grid < 2 or self.sections < 1 or self.min_neighbors < 1:
            raise ValueError("grid >= 2, sections >= 1, min_neighbors >= 1 required")

    @property
    def dim(self) -> int:
        return self.grid * self.grid * self.sections

    @property
    def cutoff(self) -> float:
        # Gaussian tails truncated at 3 sigma beyond the cylinder radius.
        return self.radius + 3.0 * self.sigma_spatial


@dataclass(frozen=True)
class Cylinder:
    """Descriptor for one minutia: flattened cell values plus validity."""

    values: np.ndarray
    valid: bool
    minutia_index: int


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


def build_cylinder(t: MinutiaeTemplate, i: int, cfg: CylinderConfig) -> Cylinder:
    """Build the cylinder of minutia ``i``; valid only with enough neighbors."""
    n = len(t)
    if not 0 <= i < n:
        raise IndexError(f"minutia index {i} out of range for template of size {n}")
    offsets, inside = _cell_offsets(cfg)
    m = t.minutiae[i]
    values = np.zeros((cfg.grid * cfg.grid, cfg.sections), dtype=np.float64)
    if n > 1:
        mask = np.arange(n) != i
        npos, nthetas = t.positions()[mask], t.thetas()[mask]

        c, s = math.cos(m.theta), math.sin(m.theta)
        world = np.empty_like(offsets)
        world[:, 0] = m.x + c * offsets[:, 0] + s * offsets[:, 1]
        world[:, 1] = m.y - s * offsets[:, 0] + c * offsets[:, 1]

        # (n_cells, n_neighbors) spatial kernel, cut at radius + 3 sigma.
        d = np.hypot(world[:, 0:1] - npos[None, :, 0], world[:, 1:2] - npos[None, :, 1])
        spatial = np.exp(-0.5 * (d / cfg.sigma_spatial) ** 2)
        spatial[d > cfg.cutoff] = 0.0
        spatial[~inside, :] = 0.0

        # (n_neighbors, sections) directional kernel on the wrapped difference.
        ddir = wrap_signed(m.theta - nthetas)
        gap = angular_difference(_section_centers(cfg)[None, :], np.atleast_1d(ddir)[:, None])
        directional = np.exp(-0.5 * (gap / cfg.sigma_direction) ** 2)

        values = spatial @ directional

        near = np.hypot(npos[:, 0] - m.x, npos[:, 1] - m.y) <= cfg.cutoff
        valid = int(near.sum()) >= cfg.min_neighbors and bool(values.any())
    else:
        valid = False
    return Cylinder(values=values.ravel(), valid=valid, minutia_index=i)


def build_mcc_set(t: MinutiaeTemplate, cfg: CylinderConfig | None = None) -> DescriptorSet:
    """One cylinder per minutia, in template order."""
    cfg = cfg or CylinderConfig()
    vectors = np.zeros((len(t), cfg.dim), dtype=np.float64)
    valid = np.zeros(len(t), dtype=bool)
    for i in range(len(t)):
        cyl = build_cylinder(t, i, cfg)
        vectors[i] = cyl.values
        valid[i] = cyl.valid
    return DescriptorSet(template_id=t.id, vectors=vectors, valid=valid)
