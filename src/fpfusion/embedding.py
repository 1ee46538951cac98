"""Patch-embedding descriptors: file loader plus a handcrafted stand-in.

Real embeddings produced offline are loaded from a small binary format
(magic ``EMB1``, little-endian u32 count, u32 dim, then count x dim f32);
a zero row is an invalid descriptor, in memory and in the file.
Without a file, a deterministic log-polar neighborhood signature stands in
so the full fusion pipeline runs without any neural network. Its soft-bin
weights are computed once over every (minutia, neighbor) pair of a
template; each minutia's histogram is then summed over its own neighbors
in template order, as building the signatures one by one would, and all
norms come from one stacked product with the same per-row dot products.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import circular_bins, wrap_signed
from fpfusion.pairing import unit_rows
from fpfusion.templates import MinutiaeTemplate

MAGIC = b"EMB1"


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Synthetic-signature radius and binning; a signature holds one value
    per bin."""

    synth_radius: float = 96.0
    radial_bins: int = 4
    angular_bins: int = 8
    direction_bins: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.synth_radius) and self.synth_radius > 0):
            raise ValueError("synth_radius must be finite and positive")
        if min(self.radial_bins, self.angular_bins, self.direction_bins) < 1:
            raise ValueError("radial_bins, angular_bins and direction_bins must be at least 1")

    @property
    def dim(self) -> int:
        return self.radial_bins * self.angular_bins * self.direction_bins


def load_embeddings(path, expected_count: int) -> DescriptorSet:
    """Load per-minutia embeddings, L2-normalized; a zero row is invalid."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise EmbeddingFormatError(f"{path}: bad magic, expected {MAGIC!r}")
    count, dim = struct.unpack_from("<II", raw, 4)
    if count != expected_count:
        raise EmbeddingFormatError(
            f"{path}: file holds {count} embeddings but template has {expected_count} minutiae"
        )
    expected_bytes = 12 + 4 * count * dim
    if len(raw) != expected_bytes:
        raise EmbeddingFormatError(
            f"{path}: expected {expected_bytes} bytes for {count}x{dim} floats, got {len(raw)}"
        )
    vectors = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64)
    vectors = vectors.reshape(count, dim)
    if not np.isfinite(vectors).all():
        raise EmbeddingFormatError(f"{path}: non-finite embedding values")
    return unit_rows(DescriptorSet(vectors, np.ones(count, dtype=bool)), out=vectors)


def save_embeddings(d: DescriptorSet, path) -> None:
    """Write the binary embedding layout; round-trips within 1e-6 per value.

    Rows are written as float32, so that form must load back as ``d`` does:
    every value finite, and a row nonzero exactly when it is valid. An
    invalid descriptor must therefore be a zero row, and a valid one must
    not round to zero. A set that fails raises before any file is made.
    """
    with np.errstate(over="ignore"):  # an overflow shows as inf below
        vectors = np.ascontiguousarray(d.vectors, dtype="<f4")
    finite = np.isfinite(vectors).all(axis=1)
    bad = ~finite | (vectors.any(axis=1) != d.valid)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            reason = "has a value that is not finite as float32"
        elif d.valid[i]:
            reason = "is valid but all zero as float32, so it would load as invalid"
        else:
            reason = "is invalid, and an invalid embedding must be a zero row to stay invalid"
        raise ValueError(f"embedding row {i} {reason}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", vectors.shape[0], vectors.shape[1]))
        fh.write(vectors.tobytes())


def build_synthetic_embeddings(
    t: MinutiaeTemplate, cfg: EmbeddingConfig | None = None
) -> DescriptorSet:
    """Log-polar neighborhood signature per minutia, unit-normalized.

    Neighbors within ``synth_radius`` are soft-binned over log-radius x
    position angle x directional difference, all measured in the
    minutia-aligned frame, so the signature is rotation and translation
    invariant. A minutia with no neighbors yields the zero row with
    valid=False (cosine needs nonzero vectors).
    """
    cfg = cfg or EmbeddingConfig()
    n = len(t)
    vectors = np.zeros((n, cfg.dim), dtype=np.float64)
    positions = t.positions()
    thetas = t.thetas()
    sigma_r = 0.5 / cfg.radial_bins
    sigma_a = 0.5 * (2.0 * math.pi / cfg.angular_bins)
    sigma_d = 0.5 * (2.0 * math.pi / cfg.direction_bins)
    radial_centers = (np.arange(cfg.radial_bins) + 0.5) / cfg.radial_bins
    log_scale = math.log1p(cfg.synth_radius)

    # Every (minutia, neighbor) pair at once; row-major order lists each
    # minutia's neighbors in template order.
    dx = positions[None, :, 0] - positions[:, None, 0]
    dy = positions[None, :, 1] - positions[:, None, 1]
    dist = np.hypot(dx, dy)
    mask = dist <= cfg.synth_radius
    np.fill_diagonal(mask, False)
    i, j = np.nonzero(mask)
    r = np.log1p(dist[i, j]) / log_scale
    # ray angle from i to neighbor, rotated into the minutia frame. Where
    # y_i == y_j, -dy is -0.0, so a ray towards smaller x is -pi here, not
    # the +pi of relaxation's arctan2(y_i - y_j, x_j - x_i); once the minutia
    # direction is taken off and wrapped, the two differ by up to 8.9e-16.
    ray = np.arctan2(-dy[i, j], dx[i, j]) - thetas[i]
    ddir = wrap_signed(thetas[j] - thetas[i])

    w_r = np.exp(-0.5 * ((r[:, None] - radial_centers[None, :]) / sigma_r) ** 2)
    w_a = circular_bins(wrap_signed(ray), cfg.angular_bins, sigma_a)
    w_d = circular_bins(ddir, cfg.direction_bins, sigma_d)
    # Each pair's soft-bin products (w_r x w_a) x w_d, laid out as
    # (minutia, neighbor slot, bins) with zeros past a minutia's neighbors.
    # Summing over the slot axis adds them one slot after another, as the
    # one-minutia einsum does, so the histogram bits are those of building
    # the signatures one by one. (n, 1, dim) @ (n, dim, 1) takes each norm
    # from the same dot product; a row-wise einsum would round differently.
    counts = np.bincount(i, minlength=n)
    slot = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    pairs = (w_r[:, :, None] * w_a[:, None, :])[..., None] * w_d[:, None, None, :]
    products = np.zeros((n, counts.max(initial=0), cfg.dim))
    products[i, slot] = pairs.reshape(len(i), cfg.dim)
    hist = products.sum(axis=1)
    valid = counts > 0
    norms = np.sqrt(np.matmul(hist[:, None, :], hist[:, :, None]))
    np.divide(hist, norms[:, 0], out=vectors, where=valid[:, None])
    return DescriptorSet(vectors=vectors, valid=valid)
