"""Patch-embedding descriptors: file loader plus a handcrafted stand-in.

Real embeddings produced offline are loaded from a small binary format
(magic ``EMB1``, little-endian u32 count, u32 dim, then count x dim f32).
Without a file, a deterministic log-polar neighborhood signature stands in
so the full fusion pipeline runs without any neural network.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fpfusion.descriptors import DescriptorSet
from fpfusion.geometry import angular_difference, wrap_signed
from fpfusion.templates import MinutiaeTemplate

MAGIC = b"EMB1"


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding dimension and synthetic-signature binning."""

    dim: int = 256
    synth_radius: float = 96.0
    radial_bins: int = 4
    angular_bins: int = 8
    direction_bins: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.synth_radius) and self.synth_radius > 0):
            raise ValueError("synth_radius must be finite and positive")
        if self.radial_bins * self.angular_bins * self.direction_bins > self.dim:
            raise ValueError("histogram bins exceed embedding dimension")


def load_embeddings(path, expected_count: int, template_id: str = "") -> DescriptorSet:
    """Load per-minutia embeddings; vectors are L2-normalized on load."""
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
    norms = np.linalg.norm(vectors, axis=1)
    if count and (norms == 0).any():
        raise EmbeddingFormatError(f"{path}: zero-norm embedding vector")
    if count:
        vectors = vectors / norms[:, None]
    return DescriptorSet(
        template_id=template_id or Path(path).stem,
        vectors=vectors,
        valid=np.ones(count, dtype=bool),
    )


def save_embeddings(d: DescriptorSet, path) -> None:
    """Write the binary embedding layout; round-trips within 1e-6 per value."""
    vectors = np.ascontiguousarray(d.vectors, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", vectors.shape[0], vectors.shape[1]))
        fh.write(vectors.tobytes())


def _circular_weights(values: np.ndarray, bins: int, sigma: float) -> np.ndarray:
    """(n, bins) Gaussian soft assignment on a circular coordinate."""
    centers = -math.pi + (np.arange(bins) + 0.5) * (2.0 * math.pi / bins)
    gap = angular_difference(values[:, None], centers[None, :])
    return np.exp(-0.5 * (gap / sigma) ** 2)


def build_synthetic_embeddings(
    t: MinutiaeTemplate, cfg: EmbeddingConfig | None = None
) -> DescriptorSet:
    """Log-polar neighborhood signature per minutia, unit-normalized.

    Neighbors within ``synth_radius`` are soft-binned over log-radius x
    position angle x directional difference, all measured in the
    minutia-aligned frame, so the signature is rotation and translation
    invariant. A minutia with no neighbors yields the basis vector e_1
    with valid=False (cosine needs nonzero vectors).
    """
    cfg = cfg or EmbeddingConfig()
    n = len(t)
    vectors = np.zeros((n, cfg.dim), dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    if n == 0:
        return DescriptorSet(template_id=t.id, vectors=vectors, valid=valid)

    positions = t.positions()
    thetas = t.thetas()
    sigma_r = 0.5 / cfg.radial_bins
    sigma_a = 0.5 * (2.0 * math.pi / cfg.angular_bins)
    sigma_d = 0.5 * (2.0 * math.pi / cfg.direction_bins)
    radial_centers = (np.arange(cfg.radial_bins) + 0.5) / cfg.radial_bins
    log_scale = math.log1p(cfg.synth_radius)

    for i in range(n):
        dx = positions[:, 0] - positions[i, 0]
        dy = positions[:, 1] - positions[i, 1]
        dist = np.hypot(dx, dy)
        mask = (dist <= cfg.synth_radius) & (np.arange(n) != i)
        if not mask.any():
            vectors[i, 0] = 1.0
            continue
        r = np.log1p(dist[mask]) / log_scale
        # ray angle from i to neighbor, rotated into the minutia frame
        ray = np.arctan2(-dy[mask], dx[mask]) - thetas[i]
        ddir = wrap_signed(thetas[mask] - thetas[i])

        w_r = np.exp(-0.5 * ((r[:, None] - radial_centers[None, :]) / sigma_r) ** 2)
        w_a = _circular_weights(wrap_signed(ray), cfg.angular_bins, sigma_a)
        w_d = _circular_weights(ddir, cfg.direction_bins, sigma_d)
        hist = np.einsum("nr,na,nd->rad", w_r, w_a, w_d)
        flat = hist.ravel()
        vectors[i, : flat.size] = flat / np.linalg.norm(flat)
        valid[i] = True
    return DescriptorSet(template_id=t.id, vectors=vectors, valid=valid)
