import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_template, rotate_template
from fpfusion.geometry import angular_difference, wrap_signed
from fpfusion.mcc import CylinderConfig, build_cylinder, build_mcc_set
from fpfusion.pairing import cosine_similarity
from fpfusion.templates import Minutia, MinutiaeTemplate


def test_default_dimension():
    cfg = CylinderConfig()
    assert cfg.dim == 16 * 16 * 6 == 1536


def test_single_minutia_invalid():
    t = MinutiaeTemplate("one", (Minutia(10, 10, 0.5),))
    cyl = build_cylinder(t, 0, CylinderConfig())
    assert not cyl.valid
    assert not cyl.values.any()


def test_index_out_of_range():
    t = MinutiaeTemplate("one", (Minutia(10, 10, 0.5),))
    with pytest.raises(IndexError):
        build_cylinder(t, 1, CylinderConfig())


def test_set_shape_and_empty(rng):
    t = random_template(rng, n=10)
    d = build_mcc_set(t)
    assert d.vectors.shape == (10, 1536)
    assert len(build_mcc_set(MinutiaeTemplate("empty", ()))) == 0


def test_translation_invariance(rng):
    t = random_template(rng, n=8, extent=150.0)
    shifted = MinutiaeTemplate(
        "s", tuple(Minutia(m.x + 37.5, m.y - 81.25, m.theta) for m in t.minutiae)
    )
    cfg = CylinderConfig()
    for i in range(len(t)):
        a = build_cylinder(t, i, cfg).values
        b = build_cylinder(shifted, i, cfg).values
        assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("alpha", [0.3, 1.9, -2.5])
def test_rotation_invariance(rng, alpha):
    t = random_template(rng, n=9, extent=150.0)
    moved = rotate_template(t, alpha, tx=21.0, ty=-9.0, center=(50.0, 60.0))
    cfg = CylinderConfig()
    for i in range(len(t)):
        a = build_cylinder(t, i, cfg).values
        b = build_cylinder(moved, i, cfg).values
        assert np.allclose(a, b, atol=1e-6)
        if a.any():
            assert cosine_similarity(a, b) >= 1 - 1e-6


def test_locality(rng):
    t = random_template(rng, n=6, extent=100.0)
    cfg = CylinderConfig()
    base = build_cylinder(t, 0, cfg).values
    # far beyond radius + 3 sigma of every cell center of minutia 0
    far = Minutia(5000.0, 5000.0, 1.0)
    grown = MinutiaeTemplate("g", t.minutiae + (far,))
    assert np.array_equal(base, build_cylinder(grown, 0, cfg).values)


def test_monotone_and_non_negative(rng):
    t = random_template(rng, n=6, extent=100.0)
    cfg = CylinderConfig()
    base = build_cylinder(t, 0, cfg).values
    assert (base >= 0).all()
    near = Minutia(t.minutiae[0].x + 15.0, t.minutiae[0].y + 5.0, 2.0)
    grown = MinutiaeTemplate("g", t.minutiae + (near,))
    assert (build_cylinder(grown, 0, cfg).values >= base - 1e-15).all()


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


@pytest.mark.parametrize("field", ["radius", "sigma_spatial", "sigma_direction"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        CylinderConfig(**{field: value})


@pytest.mark.parametrize("cfg", [CylinderConfig(), CylinderConfig(radius=50.0, grid=8, sections=4)])
def test_set_rows_equal_single_cylinders_exactly(rng, cfg):
    t = random_template(rng, n=9, extent=200.0)
    d = build_mcc_set(t, cfg)
    for i in range(len(t)):
        cyl = build_cylinder(t, i, cfg)
        assert np.array_equal(d.vectors[i], cyl.values)
        assert d.valid[i] == cyl.valid


def test_cached_cell_grid_is_read_only():
    from fpfusion.mcc import _cell_offsets, _section_centers

    cfg = CylinderConfig()
    offsets, inside = _cell_offsets(cfg)
    assert _cell_offsets(cfg)[0] is offsets
    for arr in (offsets, inside, _section_centers(cfg)):
        with pytest.raises(ValueError):
            arr[0] = 0


def dense_reference(t, cfg):
    """Every cylinder of ``t`` from the kernel over all cells x all neighbors,
    without culling: the spatial kernel is evaluated everywhere, then zeroed
    beyond the cutoff and outside the radius."""
    from fpfusion.mcc import _cell_offsets, _section_centers

    offsets, inside = _cell_offsets(cfg)
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
        d = np.hypot(world[:, 0:1] - npos[None, :, 0], world[:, 1:2] - npos[None, :, 1])
        spatial = np.exp(-0.5 * (d / cfg.sigma_spatial) ** 2)
        spatial[d > cfg.cutoff] = 0.0
        spatial[~inside, :] = 0.0
        ddir = wrap_signed(m.theta - nthetas)
        gap = angular_difference(_section_centers(cfg)[None, :], ddir[:, None])
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


@pytest.mark.parametrize("cfg", [CylinderConfig(), CylinderConfig(radius=50.0, grid=8, sections=4)])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_culled_build_equals_dense_reference_exactly(cfg, data):
    t = data.draw(templates_near_reach(cfg.radius + cfg.cutoff))
    d = build_mcc_set(t, cfg)
    vectors, valid = dense_reference(t, cfg)
    assert np.array_equal(d.vectors, vectors)
    assert np.array_equal(d.valid, valid)
