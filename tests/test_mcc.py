import numpy as np
import pytest

from conftest import random_template, rotate_template
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
