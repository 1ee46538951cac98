"""Patch-embedding descriptors: file loader plus a handcrafted stand-in.

Real embeddings produced offline are loaded from a small binary format
(magic ``EMB1``, little-endian u32 count, u32 dim, then count x dim f32);
a zero row is an invalid descriptor, in memory and in the file. Rows load
as stored: the gallery divides them by their norms.
Without a file, a deterministic log-polar neighborhood signature stands in
so the full fusion pipeline runs without any neural network. Its soft-bin
weights are computed once over the template's (minutia, neighbor) pairs,
taken from ``geometry.neighbor_pairs`` as the cylinders' pairs are, and
each minutia's (radial x angular) x direction histogram is its own
(radial x angular, k) @ (k, direction) product over its k neighbors.
The histograms become unit rows through ``descriptors.unit_rows``, as
every descriptor set does.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from fpfusion.descriptors import DescriptorSet, unit_rows
from fpfusion.geometry import circular_bins, neighbor_pairs, wrap_signed
from fpfusion.templates import MinutiaeTemplate

MAGIC = b"EMB1"


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


# The stand-in's signature radius (px) and soft-bin counts; a signature
# holds one value per bin.
SYNTH_RADIUS = 96.0
RADIAL_BINS = 4
ANGULAR_BINS = 8
DIRECTION_BINS = 8
DIM = RADIAL_BINS * ANGULAR_BINS * DIRECTION_BINS


def load_embeddings(path, expected_count: int) -> DescriptorSet:
    """Load per-minutia embeddings as stored; a zero row is invalid."""
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
    vectors = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64).reshape(count, dim)
    if not np.isfinite(vectors).all():
        raise EmbeddingFormatError(f"{path}: non-finite embedding values")
    return DescriptorSet(vectors, vectors.any(axis=1))


def save_embeddings(d: DescriptorSet, path) -> None:
    """Write the binary embedding layout; ``d`` loads back as its float32 form.

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


def build_synthetic_embeddings(t: MinutiaeTemplate) -> DescriptorSet:
    """Log-polar neighborhood signature per minutia, unit-normalized.

    Neighbors within ``SYNTH_RADIUS`` are soft-binned over log-radius x
    position angle x directional difference, all measured in the
    minutia-aligned frame, so the signature is rotation and translation
    invariant. A minutia with no neighbors yields the zero row with
    valid=False (cosine needs nonzero vectors).
    """
    n = len(t)
    vectors = np.zeros((n, DIM), dtype=np.float64)
    positions, thetas = t.positions(), t.thetas()
    sigma_r = 0.5 / RADIAL_BINS
    sigma_a = 0.5 * (2.0 * math.pi / ANGULAR_BINS)
    sigma_d = 0.5 * (2.0 * math.pi / DIRECTION_BINS)
    radial_centers = (np.arange(RADIAL_BINS) + 0.5) / RADIAL_BINS
    log_scale = math.log1p(SYNTH_RADIUS)

    i, j, dx, dy, dist, start = neighbor_pairs(positions, SYNTH_RADIUS)
    r = np.log1p(dist) / log_scale
    # ray angle from i to neighbor, rotated into the minutia frame. Where
    # y_i == y_j, -dy is -0.0, so a ray towards smaller x is -pi here, not
    # the +pi of relaxation's arctan2(y_i - y_j, x_j - x_i); once the minutia
    # direction is taken off and wrapped, the two differ by up to 8.9e-16.
    ray = np.arctan2(-dy, dx) - thetas[i]
    ddir = wrap_signed(thetas[j] - thetas[i])

    w_r = np.exp(-0.5 * ((r[:, None] - radial_centers[None, :]) / sigma_r) ** 2)
    w_a = circular_bins(wrap_signed(ray), ANGULAR_BINS, sigma_a)
    w_d = circular_bins(ddir, DIRECTION_BINS, sigma_d)
    # Each minutia's histogram is its (radial x angular, k) weights times its
    # (k, direction) weights over its k neighbors, read from one contiguous
    # (radial x angular, pairs) array; with none, it is the zero histogram.
    cells = RADIAL_BINS * ANGULAR_BINS
    positional = (w_r.T[:, None, :] * w_a.T[None, :, :]).reshape(cells, len(i))
    hist = vectors.reshape(n, cells, DIRECTION_BINS)
    for h, s0, s1 in zip(hist, start, start[1:]):
        np.matmul(positional[:, s0:s1], w_d[s0:s1], out=h)
    return unit_rows(DescriptorSet(vectors=vectors, valid=np.diff(start) > 0), out=vectors)
