import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cosine_similarity, random_template, rotate_template
from fpfusion.geometry import angular_difference, wrap_signed
from fpfusion.mcc import _CHUNK, _GROUP, CylinderConfig, _cell_offsets, build_mcc_set
from fpfusion.templates import Minutia, MinutiaeTemplate

CONFIGS = [CylinderConfig(), CylinderConfig(radius=50.0, grid=8, sections=4)]


def inside_centers(cfg):
    """Local-frame centers of the grid cells within the radius, in grid
    order (row-major over the grid)."""
    step = 2.0 * cfg.radius / cfg.grid
    coords = [-cfg.radius + step * (i + 0.5) for i in range(cfg.grid)]
    return np.array([(x, y) for x in coords for y in coords if math.hypot(x, y) <= cfg.radius])


def test_default_dimension():
    # a row holds the cells inside the radius x sections
    assert CylinderConfig().dim == 208 * 6 == 1248
    for cfg in CONFIGS:
        assert cfg.dim == len(inside_centers(cfg)) * cfg.sections
        assert np.array_equal(_cell_offsets(cfg), inside_centers(cfg))


def test_single_minutia_invalid():
    t = MinutiaeTemplate("one", (Minutia(10, 10, 0.5),))
    d = build_mcc_set(t, CylinderConfig())
    assert not d.valid[0]
    assert not d.vectors[0].any()


def test_set_shape_and_empty(rng):
    t = random_template(rng, n=10)
    d = build_mcc_set(t)
    assert d.vectors.shape == (10, CylinderConfig().dim)
    assert len(build_mcc_set(MinutiaeTemplate("empty", ()))) == 0


def test_translation_invariance(rng):
    t = random_template(rng, n=8, extent=150.0)
    shifted = MinutiaeTemplate(
        "s", tuple(Minutia(m.x + 37.5, m.y - 81.25, m.theta) for m in t.minutiae)
    )
    cfg = CylinderConfig()
    for a, b in zip(build_mcc_set(t, cfg).vectors, build_mcc_set(shifted, cfg).vectors):
        assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("alpha", [0.3, 1.9, -2.5])
def test_rotation_invariance(rng, alpha):
    t = random_template(rng, n=9, extent=150.0)
    moved = rotate_template(t, alpha, tx=21.0, ty=-9.0, center=(50.0, 60.0))
    cfg = CylinderConfig()
    for a, b in zip(build_mcc_set(t, cfg).vectors, build_mcc_set(moved, cfg).vectors):
        assert np.allclose(a, b, atol=1e-6)
        if a.any():
            assert cosine_similarity(a, b) >= 1 - 1e-6


def test_locality(rng):
    t = random_template(rng, n=6, extent=100.0)
    cfg = CylinderConfig()
    base = build_mcc_set(t, cfg).vectors[0]
    # far beyond radius + 3 sigma of every cell center of minutia 0
    far = Minutia(5000.0, 5000.0, 1.0)
    grown = MinutiaeTemplate("g", t.minutiae + (far,))
    assert np.array_equal(base, build_mcc_set(grown, cfg).vectors[0])


def test_monotone_and_non_negative(rng):
    t = random_template(rng, n=6, extent=100.0)
    cfg = CylinderConfig()
    base = build_mcc_set(t, cfg).vectors[0]
    assert (base >= 0).all()
    near = Minutia(t.minutiae[0].x + 15.0, t.minutiae[0].y + 5.0, 2.0)
    grown = MinutiaeTemplate("g", t.minutiae + (near,))
    assert (build_mcc_set(grown, cfg).vectors[0] >= base - 1e-15).all()


def test_determinism(rng):
    t = random_template(rng, n=10)
    a = build_mcc_set(t)
    b = build_mcc_set(t)
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert np.array_equal(a.valid, b.valid)


def test_validity_needs_min_neighbors():
    # two isolated minutiae: each has one neighbor, below the default of 2
    t = MinutiaeTemplate("p", (Minutia(0, 0, 0.0), Minutia(20, 0, 0.0)))
    d = build_mcc_set(t)
    assert not d.valid.any()
    assert build_mcc_set(t, CylinderConfig(min_neighbors=1)).valid.all()


def test_config_validation():
    with pytest.raises(ValueError):
        CylinderConfig(radius=-1)
    with pytest.raises(ValueError):
        CylinderConfig(grid=1)


@pytest.mark.parametrize("field", ["radius", "sigma_spatial"])
@pytest.mark.parametrize("value", [1e-170, 9.9e-7, 1.01e6, 1e160])
def test_config_rejects_scale_outside_pixel_range(field, value):
    with pytest.raises(ValueError, match=r"\[1e-06, 1e\+06\] px"):
        CylinderConfig(**{field: value})


@pytest.mark.parametrize("field", ["radius", "sigma_spatial"])
@pytest.mark.parametrize("value", [1e-6, 1e6])
def test_config_accepts_pixel_range_ends(field, value):
    assert getattr(CylinderConfig(**{field: value}), field) == value


@pytest.mark.parametrize("field", ["radius", "sigma_spatial", "sigma_direction"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        CylinderConfig(**{field: value})


def test_cached_cell_grid_is_read_only():
    cfg = CylinderConfig()
    offsets = _cell_offsets(cfg)
    assert _cell_offsets(cfg) is offsets
    with pytest.raises(ValueError):
        offsets[0] = 0


def engine_distance(dx, dy):
    """A cell-to-neighbor distance as the build computes it."""
    return np.sqrt(dx * dx + dy * dy)


def dense_reference(t, cfg, distance=engine_distance):
    """Every cylinder of ``t`` from the kernel over the inside cells x all
    neighbors, without culling: the spatial kernel is evaluated everywhere,
    then zeroed beyond the cutoff. ``distance`` gives the cell-to-neighbor
    distances; the neighbor distance that decides validity is hypot's."""
    offsets = inside_centers(cfg)
    n = len(t)
    vectors = np.zeros((n, cfg.dim))
    valid = np.zeros(n, dtype=bool)
    for i, m in enumerate(t.minutiae if n > 1 else ()):
        others = np.arange(n) != i
        npos, nthetas = t.positions()[others], t.thetas()[others]
        c, s = math.cos(m.theta), math.sin(m.theta)
        world = np.empty_like(offsets)
        world[:, 0] = m.x + c * offsets[:, 0] + s * offsets[:, 1]
        world[:, 1] = m.y - s * offsets[:, 0] + c * offsets[:, 1]
        d = distance(world[:, 0:1] - npos[None, :, 0], world[:, 1:2] - npos[None, :, 1])
        spatial = np.exp(-0.5 * (d / cfg.sigma_spatial) ** 2)
        spatial[d > cfg.cutoff] = 0.0
        ddir = wrap_signed(m.theta - nthetas)
        centers = -math.pi + (np.arange(cfg.sections) + 0.5) * (2.0 * math.pi / cfg.sections)
        gap = angular_difference(centers[None, :], ddir[:, None])
        values = spatial @ np.exp(-0.5 * (gap / cfg.sigma_direction) ** 2)
        near = np.hypot(npos[:, 0] - m.x, npos[:, 1] - m.y) <= cfg.cutoff
        vectors[i] = values.ravel()
        valid[i] = int(near.sum()) >= cfg.min_neighbors and bool(values.any())
    return vectors, valid


@st.composite
def templates_near_reach(draw, reach):
    """0-60 minutiae on an extent up to 800 px; some neighbors are planted
    within 1.5 px of ``reach`` from a minutia, where culling decides."""
    extent = draw(st.floats(1.0, 800.0))
    coord = st.floats(0.0, extent)
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    n = draw(st.integers(0, 55))
    minutiae = [Minutia(draw(coord), draw(coord), draw(angle)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 5)) if minutiae else 0):
        anchor = draw(st.sampled_from(minutiae))
        r = reach + draw(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5]))
        phi = draw(angle)
        minutiae.append(
            Minutia(anchor.x + r * math.cos(phi), anchor.y + r * math.sin(phi), draw(angle))
        )
    return MinutiaeTemplate("h", tuple(minutiae))


def assert_equals_dense_reference(t, cfg):
    d = build_mcc_set(t, cfg)
    vectors, valid = dense_reference(t, cfg)
    assert np.array_equal(d.vectors, vectors)
    assert np.array_equal(d.valid, valid)


@pytest.mark.parametrize("cfg", CONFIGS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_culled_build_equals_dense_reference_exactly(cfg, data):
    assert_equals_dense_reference(data.draw(templates_near_reach(cfg.radius + cfg.cutoff)), cfg)


@pytest.mark.parametrize("cfg", CONFIGS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_build_equals_hypot_reference_to_rounding(cfg, data):
    # the build's square-root distance is within a few ulps of hypot's; with
    # (d / sigma)**2 at most ~110 below the cutoff, a kernel value moves by
    # under 1e-13 relative, and validity does not move
    t = data.draw(templates_near_reach(cfg.radius + cfg.cutoff))
    d = build_mcc_set(t, cfg)
    vectors, valid = dense_reference(t, cfg, distance=np.hypot)
    np.testing.assert_allclose(d.vectors, vectors, rtol=1e-12, atol=1e-300)
    assert np.array_equal(d.valid, valid)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("n", [15, 16, 17, 33])
def test_chunk_edges_equal_dense_reference_exactly(cfg, n):
    # the build evaluates a chunk of minutiae at a time, and 16 and 32 are
    # multiples of it: chunks filled exactly, one short, and a remainder of
    # one after full chunks
    assert 16 % _CHUNK == 0
    rng = np.random.default_rng(n)
    assert_equals_dense_reference(random_template(rng, n=n, extent=200.0, min_spacing=6.0), cfg)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("n", [_GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 1])
def test_group_edges_equal_dense_reference_exactly(cfg, n):
    # the build evaluates the spatial kernel of a group of minutiae at a
    # time: one group a minutia short, one filled exactly, and remainders of
    # one after full groups
    assert _GROUP % _CHUNK == 0
    rng = np.random.default_rng(100 + n)
    assert_equals_dense_reference(random_template(rng, n=n, extent=200.0, min_spacing=6.0), cfg)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("clusters", [True, False])
def test_groups_without_reachable_pairs_equal_dense_reference_exactly(cfg, clusters):
    # two clusters farther apart than reach, with 2 * _GROUP isolated
    # minutiae between them in template order, so whole chunks and a whole
    # group hold no reachable pair; without the clusters no group holds one
    reach = cfg.radius + cfg.cutoff + 1.0
    lone = tuple(Minutia((k + 1) * 2.0 * reach, 0.0, 0.2 * k) for k in range(2 * _GROUP))
    near, far = (), ()
    if clusters:
        rng = np.random.default_rng(7)
        near = random_template(rng, n=_CHUNK + 1, extent=60.0, min_spacing=4.0).minutiae
        shift = (2 * _GROUP + 2) * 2.0 * reach
        far = random_template(rng, n=_CHUNK + 2, extent=60.0, min_spacing=4.0).minutiae
        far = tuple(Minutia(m.x + shift, m.y, m.theta) for m in far)
    t = MinutiaeTemplate("h", near + lone + far)
    assert_equals_dense_reference(t, cfg)
    d = build_mcc_set(t, cfg)
    isolated = slice(len(near), len(near) + len(lone))
    assert not d.vectors[isolated].any() and not d.valid[isolated].any()
    assert d.valid.any() == clusters
