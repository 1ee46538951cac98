"""Fingerprint identification by fusion of local minutia descriptors.

Two fixed-length descriptors are built per minutia (a cylinder code and a
neighborhood-signature embedding), compared with angle-gated cosine
similarity, consolidated by relaxation into a global match score and
evaluated with rank-k / CMC identification benchmarks.
"""

from fpfusion.geometry import angular_difference, euclidean_distance
from fpfusion.templates import Minutia, MinutiaeTemplate, load_template, save_template
from fpfusion.descriptors import DescriptorSet
from fpfusion.mcc import CylinderConfig, build_cylinder, build_mcc_set
from fpfusion.embedding import (
    EmbeddingConfig,
    build_synthetic_embeddings,
    load_embeddings,
    save_embeddings,
)
from fpfusion.pairing import cosine_similarity, compute_n_r, compute_n_p
from fpfusion.relaxation import RelaxationParams, pair_compatibility
from fpfusion.fusion import FusionConfig, MatchResult, match_all_channels
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
    "euclidean_distance",
    "DescriptorSet",
    "CylinderConfig",
    "build_cylinder",
    "build_mcc_set",
    "EmbeddingConfig",
    "build_synthetic_embeddings",
    "load_embeddings",
    "save_embeddings",
    "cosine_similarity",
    "compute_n_r",
    "compute_n_p",
    "RelaxationParams",
    "pair_compatibility",
    "FusionConfig",
    "MatchResult",
    "match_all_channels",
    "Gallery",
    "IdentificationResult",
    "CmcCurve",
    "cmc",
    "fuse_ranks",
    "identify_all",
]
