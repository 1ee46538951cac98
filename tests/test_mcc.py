import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    CYLINDER_SHAPES,
    cosine_similarity,
    cylinder_shape,
    random_template,
    rotate_template,
    seeded_templates,
)
from fpfusion.embedding import build_synthetic_embeddings
from fpfusion.geometry import angular_difference, wrap_signed
import fpfusion.mcc as mcc
from fpfusion.mcc import _GROUP, build_mcc_set
from fpfusion.templates import Minutia, MinutiaeTemplate


def reach():
    """The distance beyond which a neighbor reaches none of a minutia's
    cells, read when called, so under ``cylinder_shape`` too."""
    return mcc.RADIUS + mcc.CUTOFF


def inside_centers():
    """Local-frame centers of the grid cells within the radius, in grid
    order (row-major over the grid)."""
    r, grid = mcc.RADIUS, mcc.GRID
    coords = [-r + 2.0 * r / grid * (i + 0.5) for i in range(grid)]
    return np.array([(x, y) for x in coords for y in coords if math.hypot(x, y) <= r])


def test_default_dimension():
    # a row holds the cells inside the radius x sections
    assert mcc.DIM == 208 * 6 == 1248
    assert mcc.DIM == len(inside_centers()) * mcc.SECTIONS
    assert np.array_equal(mcc.CELL_OFFSETS, inside_centers())


def test_single_minutia_invalid():
    t = MinutiaeTemplate("one", (Minutia(10, 10, 0.5),))
    d = build_mcc_set(t)
    assert not d.valid[0]
    assert not d.vectors[0].any()


def test_set_shape_and_empty(rng):
    t = random_template(rng, n=10)
    d = build_mcc_set(t)
    assert d.vectors.shape == (10, mcc.DIM)
    assert len(build_mcc_set(MinutiaeTemplate("empty", ()))) == 0


def test_translation_invariance(rng):
    t = random_template(rng, n=8, extent=150.0)
    shifted = MinutiaeTemplate(
        "s", tuple(Minutia(m.x + 37.5, m.y - 81.25, m.theta) for m in t.minutiae)
    )
    for a, b in zip(build_mcc_set(t).vectors, build_mcc_set(shifted).vectors):
        assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("alpha", [0.3, 1.9, -2.5])
def test_rotation_invariance(rng, alpha):
    t = random_template(rng, n=9, extent=150.0)
    moved = rotate_template(t, alpha, tx=21.0, ty=-9.0, center=(50.0, 60.0))
    for a, b in zip(build_mcc_set(t).vectors, build_mcc_set(moved).vectors):
        assert np.allclose(a, b, atol=1e-6)
        if a.any():
            assert cosine_similarity(a, b) >= 1 - 1e-6


def test_locality(rng):
    t = random_template(rng, n=6, extent=100.0)
    base = build_mcc_set(t).vectors[0]
    # far beyond radius + 3 sigma of every cell center of minutia 0
    far = Minutia(5000.0, 5000.0, 1.0)
    grown = MinutiaeTemplate("g", t.minutiae + (far,))
    assert np.array_equal(base, build_mcc_set(grown).vectors[0])


def test_monotone_and_non_negative(rng):
    t = random_template(rng, n=6, extent=100.0)
    base = build_mcc_set(t).vectors[0]
    assert (base >= 0).all()
    near = Minutia(t.minutiae[0].x + 15.0, t.minutiae[0].y + 5.0, 2.0)
    grown = MinutiaeTemplate("g", t.minutiae + (near,))
    assert (build_mcc_set(grown).vectors[0] >= base - 1e-15).all()


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
    # a third minutia near both gives each of the three two neighbors
    t = MinutiaeTemplate("p", t.minutiae + (Minutia(10, 15, 0.0),))
    assert build_mcc_set(t).valid.all()


def test_cell_offsets_are_read_only():
    with pytest.raises(ValueError):
        mcc.CELL_OFFSETS[0] = 0


def engine_spatial(offsets, m, npos):
    """(cells, neighbors) spatial kernel of minutia ``m`` as the build
    computes it: each neighbor's offset rotated into m's frame as (u, v),
    then the Gaussian of the squared cell distance, cut beyond the cutoff."""
    c, s = math.cos(m.theta), math.sin(m.theta)
    dx, dy = npos[:, 0] - m.x, npos[:, 1] - m.y
    u, v = c * dx - s * dy, s * dx + c * dy
    q = (offsets[:, 0:1] - u) ** 2 + (offsets[:, 1:2] - v) ** 2
    spatial = np.exp(q * (-0.5 / (mcc.SIGMA_SPATIAL * mcc.SIGMA_SPATIAL)))
    spatial[q > mcc.CUTOFF * mcc.CUTOFF] = 0.0
    return spatial


def hypot_spatial(offsets, m, npos):
    """(cells, neighbors) spatial kernel of minutia ``m`` from world-frame
    cell centers and hypot's cell distances, cut beyond the cutoff."""
    c, s = math.cos(m.theta), math.sin(m.theta)
    wx = m.x + c * offsets[:, 0:1] + s * offsets[:, 1:2]
    wy = m.y - s * offsets[:, 0:1] + c * offsets[:, 1:2]
    d = np.hypot(wx - npos[:, 0], wy - npos[:, 1])
    spatial = np.exp(-0.5 * (d / mcc.SIGMA_SPATIAL) ** 2)
    spatial[d > mcc.CUTOFF] = 0.0
    return spatial


def dense_reference(t, spatial_kernel=engine_spatial, all_neighbors=False):
    """Every cylinder of ``t`` from the kernel over the inside cells x all
    neighbors, without culling: ``spatial_kernel`` is evaluated everywhere
    and zeroed beyond the cutoff. The product with the directional kernel
    sums over the neighbors within radius + cutoff + 1 px of the minutia,
    MCC's N_p, in template order, or over all of them with
    ``all_neighbors``. The neighbor distances that decide the terms and
    validity are hypot's."""
    offsets = inside_centers()
    n = len(t)
    vectors = np.zeros((n, mcc.DIM))
    valid = np.zeros(n, dtype=bool)
    for i, m in enumerate(t.minutiae if n > 1 else ()):
        others = np.arange(n) != i
        npos, nthetas = t.positions()[others], t.thetas()[others]
        spatial = spatial_kernel(offsets, m, npos)
        ddir = wrap_signed(m.theta - nthetas)
        centers = -math.pi + (np.arange(mcc.SECTIONS) + 0.5) * (2.0 * math.pi / mcc.SECTIONS)
        gap = angular_difference(centers[None, :], ddir[:, None])
        directional = np.exp(-0.5 * (gap / mcc.SIGMA_DIRECTION) ** 2)
        dist = np.hypot(npos[:, 0] - m.x, npos[:, 1] - m.y)
        terms = slice(None) if all_neighbors else dist <= reach() + 1.0
        # a column selection comes out transposed in memory; BLAS may round a
        # transposed operand differently, so the kernel is copied to C order
        values = np.ascontiguousarray(spatial[:, terms]) @ directional[terms]
        near = dist <= mcc.CUTOFF
        vectors[i] = values.ravel()
        valid[i] = int(near.sum()) >= mcc.MIN_NEIGHBORS and bool(values.any())
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


def assert_equals_dense_reference(t):
    d = build_mcc_set(t)
    vectors, valid = dense_reference(t)
    assert np.array_equal(d.vectors, vectors)
    assert np.array_equal(d.valid, valid)


@pytest.mark.parametrize("cfg", CYLINDER_SHAPES)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_culled_build_equals_dense_reference_exactly(cfg, data):
    with cylinder_shape(cfg):
        assert_equals_dense_reference(data.draw(templates_near_reach(reach())))


@pytest.mark.parametrize("cfg", CYLINDER_SHAPES)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_build_equals_hypot_reference_to_rounding(cfg, data):
    # the build's squared distance in the minutia's frame is within a few
    # ulps of hypot's in the world frame; with (d / sigma)**2 at most ~110
    # below the cutoff, a kernel value moves by under 1e-13 relative, and
    # validity does not move
    with cylinder_shape(cfg):
        t = data.draw(templates_near_reach(reach()))
        d = build_mcc_set(t)
        vectors, valid = dense_reference(t, spatial_kernel=hypot_spatial)
    np.testing.assert_allclose(d.vectors, vectors, rtol=1e-12, atol=1e-300)
    assert np.array_equal(d.valid, valid)


@pytest.mark.parametrize("cfg", CYLINDER_SHAPES)
@pytest.mark.parametrize("n", [15, 16, 17, 33])
def test_chunk_edges_equal_dense_reference_exactly(cfg, n):
    # named for the build's former chunks of four minutiae, the sizes now
    # draw the group edges below a second time: each minutia's product reads
    # its own columns of its group's kernel, at the start, middle and end of
    # a full group, of one a minutia short, and of a remainder of one
    rng = np.random.default_rng(n)
    with cylinder_shape(cfg):
        assert_equals_dense_reference(random_template(rng, n=n, extent=200.0, min_spacing=6.0))


@pytest.mark.parametrize("cfg", CYLINDER_SHAPES)
@pytest.mark.parametrize("n", [_GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 1])
def test_group_edges_equal_dense_reference_exactly(cfg, n):
    # the build evaluates the spatial kernel of a group of minutiae at a
    # time: one group a minutia short, one filled exactly, and remainders of
    # one after full groups
    rng = np.random.default_rng(100 + n)
    with cylinder_shape(cfg):
        assert_equals_dense_reference(random_template(rng, n=n, extent=200.0, min_spacing=6.0))


@pytest.mark.parametrize("cfg", CYLINDER_SHAPES)
@pytest.mark.parametrize("clusters", [True, False])
def test_groups_without_reachable_pairs_equal_dense_reference_exactly(cfg, clusters):
    # two clusters farther apart than reach, with 2 * _GROUP isolated
    # minutiae between them in template order, so a whole group holds no
    # reachable pair; without the clusters no group holds one
    with cylinder_shape(cfg):
        step = 2.0 * (reach() + 1.0)
        lone = tuple(Minutia((k + 1) * step, 0.0, 0.2 * k) for k in range(2 * _GROUP))
        near, far = (), ()
        if clusters:
            rng = np.random.default_rng(7)
            near = random_template(rng, n=5, extent=60.0, min_spacing=4.0).minutiae
            shift = (2 * _GROUP + 2) * step
            far = random_template(rng, n=6, extent=60.0, min_spacing=4.0).minutiae
            far = tuple(Minutia(m.x + shift, m.y, m.theta) for m in far)
        t = MinutiaeTemplate("h", near + lone + far)
        assert_equals_dense_reference(t)
        d = build_mcc_set(t)
    isolated = slice(len(near), len(near) + len(lone))
    assert not d.vectors[isolated].any() and not d.valid[isolated].any()
    assert d.valid.any() == clusters


# Dropping the unreachable neighbors' zero columns keeps the product's bits
# at the fixed 6 sections (see the mcc module docstring); some BLAS kernels
# round a product of 4 sections differently, by at most 6.7e-16 relative
# over 1,280 seeded builds of the second shape.
@pytest.mark.parametrize("cfg, rtol", [(CYLINDER_SHAPES[0], 0.0), (CYLINDER_SHAPES[1], 4e-15)])
def test_build_equals_all_neighbor_product(cfg, rtol):
    with cylinder_shape(cfg):
        for t in seeded_templates():
            d = build_mcc_set(t)
            vectors, valid = dense_reference(t, all_neighbors=True)
            # atol=0: the zero pattern is exact, and with rtol=0 every value
            np.testing.assert_allclose(d.vectors, vectors, rtol=rtol, atol=0)
            assert np.array_equal(d.valid, valid)


@pytest.mark.parametrize("cfg", CYLINDER_SHAPES)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_minutiae_beyond_reach_change_no_other_cylinder(cfg, data):
    # a cell sums over the neighbors within reach only, so minutiae placed
    # beyond reach of every minutia of t, anywhere in template order, leave
    # t's rows' bits and validity as they were
    with cylinder_shape(cfg):
        t = data.draw(templates_near_reach(reach()))
        edge = max((m.x for m in t.minutiae), default=0.0) + reach() + 1.0
        grown = [(True, m) for m in t.minutiae]
        for _ in range(data.draw(st.integers(1, 3))):
            far = Minutia(
                edge + data.draw(st.floats(1.0, 5000.0)),
                data.draw(st.floats(-5000.0, 5000.0)),
                data.draw(st.floats(0.0, 2 * math.pi, exclude_max=True)),
            )
            grown.insert(data.draw(st.integers(0, len(grown))), (False, far))
        kept = [k for k, (original, _) in enumerate(grown) if original]
        d = build_mcc_set(MinutiaeTemplate("g", tuple(m for _, m in grown)))
        base = build_mcc_set(t)
        assert d.vectors[kept].tobytes() == base.vectors.tobytes()
        assert np.array_equal(d.valid[kept], base.valid)


@pytest.mark.parametrize(
    "build,bound", [(build_mcc_set, 50e6), (build_synthetic_embeddings, 25e6)], ids=["mcc", "emb"]
)
def test_dense_template_build_memory_is_bounded(build, bound):
    # 600 uniform minutiae on 500 x 500 px, a quarter of their pairs within
    # the cylinders' reach: each build's tracemalloc peak (~29 MB for the
    # cylinders, 6 MB of it the output; ~19 MB for the embeddings) stays
    # under its bound
    rng = np.random.default_rng(600)
    t = random_template(rng, n=600, extent=500.0, min_spacing=0.0)
    tracemalloc.start()
    try:
        build(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
