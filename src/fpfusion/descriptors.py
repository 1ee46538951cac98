"""Uniform container for per-minutia fixed-length descriptors.

Cylinder codes and patch embeddings share this shape so the pairing stage
treats both channels identically; ``unit_rows`` makes every set unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DescriptorSet:
    """One fixed-length vector per minutia of a template, plus validity.

    ``vectors`` has shape (n_minutiae, dim); ``valid[i]`` is False for
    descriptors that must be excluded from similarity matrices.
    """

    vectors: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if vectors.ndim != 2:
            raise ValueError("descriptor vectors must be a 2-d array")
        if valid.shape != (vectors.shape[0],):
            raise ValueError("valid mask length must equal descriptor count")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def unit_rows(d: DescriptorSet, out: np.ndarray | None = None) -> DescriptorSet:
    """The descriptors divided by their norms; a zero row becomes invalid.

    ``out=d.vectors`` divides in place, for a set that nothing else holds.
    """
    norms = np.linalg.norm(d.vectors, axis=1)
    vectors = np.divide(d.vectors, np.where(norms > 0, norms, 1.0)[:, None], out=out)
    return DescriptorSet(vectors=vectors, valid=d.valid & (norms > 0))
