import numpy as np
import pytest

from conftest import HUGE_SPAN_ROWS, seeded_templates
from fpfusion.descriptors import DescriptorSet
from fpfusion.embedding import EmbeddingConfig, build_synthetic_embeddings
from fpfusion.mcc import CylinderConfig, build_mcc_set
from fpfusion.templates import Minutia, MinutiaeTemplate


@pytest.mark.parametrize("vectors", [np.zeros(4), np.zeros((2, 3, 4))])
def test_vectors_not_2d_rejected(vectors):
    with pytest.raises(ValueError, match="2-d"):
        DescriptorSet(vectors, np.ones(len(vectors), dtype=bool))


@pytest.mark.parametrize("valid", [np.ones(2, dtype=bool), np.ones(4, dtype=bool), np.ones((3, 1))])
def test_valid_mask_of_wrong_length_rejected(valid):
    with pytest.raises(ValueError, match="valid mask length"):
        DescriptorSet(np.zeros((3, 4)), valid)


# Longdouble oracles of the two descriptor formulas. They share no code with
# the builds: every step runs in extended precision from the template's
# positions and directions, so a build's error against them is its rounding
# error, whatever its batching.

LD = np.longdouble
PI = np.arctan2(LD(0), LD(-1))
# The relative rounding error allowed against the oracles. Both builds
# stay within ~3.4e-14 on these templates; cylinders taken from world-frame
# cell centers reached 1.1e-13, and far more at a 1e200 px span.
BOUND = 6e-14


def oracle_wrap(theta):
    return (theta + PI) % (2 * PI) - PI


def oracle_bins(values, bins, sigma):
    """(..., bins) Gaussian weights of angles on ``bins`` circular bins."""
    centers = -PI + (np.arange(bins, dtype=LD) + LD(0.5)) * (2 * PI / bins)
    d = np.abs(values[..., None] - centers) % (2 * PI)
    return np.exp(-((np.minimum(d, 2 * PI - d) / LD(sigma)) ** 2) / 2)


def cylinder_oracle(t, cfg):
    """MCC cylinders: at each inside cell center o of minutia i's frame, the
    sum over neighbors j within the cutoff of o of the spatial Gaussian of
    |o - R_i^T (p_j - p_i)| times the directional weights of the wrapped
    direction difference; valid with min_neighbors neighbors within the
    cutoff of p_i and a nonzero cell."""
    xy, theta = t.positions().astype(LD), t.thetas().astype(LD)
    step = 2 * LD(cfg.radius) / cfg.grid
    coords = -LD(cfg.radius) + step * (np.arange(cfg.grid, dtype=LD) + LD(0.5))
    ox, oy = (a.ravel() for a in np.meshgrid(coords, coords, indexing="ij"))
    inside = np.hypot(ox, oy) <= cfg.radius
    ox, oy = ox[inside, None], oy[inside, None]
    cutoff = LD(cfg.radius) + 3 * LD(cfg.sigma_spatial)
    n = len(t)
    vectors = np.zeros((n, cfg.dim), dtype=LD)
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        others = np.arange(n) != i
        dx, dy = xy[others, 0] - xy[i, 0], xy[others, 1] - xy[i, 1]
        c, s = np.cos(theta[i]), np.sin(theta[i])
        d = np.hypot(ox - (c * dx - s * dy), oy - (s * dx + c * dy))
        spatial = np.where(d <= cutoff, np.exp(-((d / LD(cfg.sigma_spatial)) ** 2) / 2), 0)
        ddir = oracle_wrap(theta[i] - theta[others])
        values = spatial @ oracle_bins(ddir, cfg.sections, cfg.sigma_direction)
        vectors[i] = values.ravel()
        near = int((np.hypot(dx, dy) <= cutoff).sum())
        valid[i] = near >= cfg.min_neighbors and bool(values.any())
    return vectors, valid


def embedding_oracle(t, cfg):
    """Log-polar signatures: for each minutia, the sum over neighbors within
    synth_radius of the radial x ray-angle x direction soft-bin weights in
    its frame, divided by its norm; valid with a neighbor."""
    xy, theta = t.positions().astype(LD), t.thetas().astype(LD)
    radial_centers = (np.arange(cfg.radial_bins, dtype=LD) + LD(0.5)) / cfg.radial_bins
    n = len(t)
    vectors = np.zeros((n, cfg.dim), dtype=LD)
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        dx, dy = xy[:, 0] - xy[i, 0], xy[:, 1] - xy[i, 1]
        dist = np.hypot(dx, dy)
        near = (dist <= cfg.synth_radius) & (np.arange(n) != i)
        if not near.any():
            continue
        r = np.log1p(dist[near]) / np.log1p(LD(cfg.synth_radius))
        w_r = np.exp(-(((r[:, None] - radial_centers) * (2 * cfg.radial_bins)) ** 2) / 2)
        ray = oracle_wrap(np.arctan2(-dy[near], dx[near]) - theta[i])
        w_a = oracle_bins(ray, cfg.angular_bins, PI / cfg.angular_bins)
        w_d = oracle_bins(oracle_wrap(theta[near] - theta[i]), cfg.direction_bins, PI / cfg.direction_bins)
        hist = np.einsum("kr,ka,kd->rad", w_r, w_a, w_d).ravel()
        vectors[i] = hist / np.sqrt(hist @ hist)
        valid[i] = True
    return vectors, valid


def oracle_templates():
    """Seeded default, latent and dense templates, and the 1e200 px span."""
    huge = MinutiaeTemplate("huge", tuple(Minutia(*m) for m in HUGE_SPAN_ROWS))
    return seeded_templates() + [huge]


def assert_within(vectors, valid, oracle, bound):
    """Exact validity and zero pattern, and every nonzero value within
    ``bound`` of the oracle, relative."""
    expected, expected_valid = oracle
    assert np.array_equal(valid, expected_valid)
    assert np.array_equal(vectors != 0, expected != 0)
    nonzero = expected != 0
    error = np.abs(vectors[nonzero] - expected[nonzero]) / expected[nonzero]
    assert error.max(initial=0) <= bound


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than double here",
)


@needs_longdouble
@pytest.mark.parametrize("cfg", [CylinderConfig(), CylinderConfig(radius=50.0, grid=8, sections=4)])
def test_cylinders_equal_longdouble_oracle_to_rounding(cfg):
    for t in oracle_templates():
        d = build_mcc_set(t, cfg)
        assert_within(d.vectors, d.valid, cylinder_oracle(t, cfg), BOUND)


@needs_longdouble
@pytest.mark.parametrize(
    "cfg",
    [
        EmbeddingConfig(),
        EmbeddingConfig(synth_radius=150.0, radial_bins=3, angular_bins=5, direction_bins=7),
    ],
)
def test_embeddings_equal_longdouble_oracle_to_rounding(cfg):
    for t in oracle_templates():
        e = build_synthetic_embeddings(t, cfg)
        assert_within(e.vectors, e.valid, embedding_oracle(t, cfg), BOUND)
