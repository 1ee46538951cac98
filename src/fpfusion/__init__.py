"""Fingerprint identification by fusion of local minutia descriptors.

Two fixed-length descriptors are built per minutia (a cylinder code and a
neighborhood-signature embedding), compared with angle-gated cosine
similarity, consolidated by relaxation into a global match score and
evaluated with rank-k / CMC identification benchmarks.
"""

from fpfusion.geometry import angular_difference
from fpfusion.templates import Minutia, MinutiaeTemplate, load_template, save_template
from fpfusion.descriptors import DescriptorSet
from fpfusion.mcc import build_mcc_set
from fpfusion.embedding import build_synthetic_embeddings, load_embeddings, save_embeddings
from fpfusion.pairing import compute_n_r, compute_n_p
from fpfusion.fusion import FusionConfig
from fpfusion.evaluation import (
    Gallery,
    IdentificationResult,
    CmcCurve,
    cmc,
    fuse_ranks,
    identify_all,
)

__all__ = [
    "Minutia",
    "MinutiaeTemplate",
    "load_template",
    "save_template",
    "angular_difference",
    "DescriptorSet",
    "build_mcc_set",
    "build_synthetic_embeddings",
    "load_embeddings",
    "save_embeddings",
    "compute_n_r",
    "compute_n_p",
    "FusionConfig",
    "Gallery",
    "IdentificationResult",
    "CmcCurve",
    "cmc",
    "fuse_ranks",
    "identify_all",
]
