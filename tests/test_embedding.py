import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    EMBEDDING_SHAPES,
    cosine_similarity,
    embedding_shape,
    random_template,
    rotate_template,
)
from fpfusion.descriptors import DescriptorSet
import fpfusion.embedding as embedding
from fpfusion.embedding import (
    EmbeddingFormatError,
    build_synthetic_embeddings,
    load_embeddings,
    save_embeddings,
)
from fpfusion.evaluation import Gallery
from fpfusion.geometry import angular_difference, wrap_signed
from fpfusion.templates import Minutia, MinutiaeTemplate


def test_unit_norm(rng):
    t = random_template(rng, n=12, extent=200.0)
    e = build_synthetic_embeddings(t)
    norms = np.linalg.norm(e.vectors, axis=1)
    assert np.allclose(norms[e.valid], 1.0, atol=1e-6)


def test_no_neighbor_sentinel():
    t = MinutiaeTemplate("one", (Minutia(0, 0, 0.3),))
    e = build_synthetic_embeddings(t)
    assert np.array_equal(e.vectors[0], np.zeros(256))
    assert not e.valid[0]


def test_rotation_translation_invariance(rng):
    t = random_template(rng, n=10, extent=150.0)
    moved = rotate_template(t, 1.1, tx=-30.0, ty=44.0, center=(70.0, 20.0))
    a = build_synthetic_embeddings(t)
    b = build_synthetic_embeddings(moved)
    for i in range(len(t)):
        if a.valid[i]:
            assert cosine_similarity(a.vectors[i], b.vectors[i]) >= 1 - 1e-6


def test_different_layouts_differ(rng):
    ta = random_template(rng, n=5, extent=120.0, tid="a")
    tb = random_template(rng, n=5, extent=120.0, tid="b")
    ea = build_synthetic_embeddings(ta)
    eb = build_synthetic_embeddings(tb)
    assert cosine_similarity(ea.vectors[0], eb.vectors[0]) < 0.99


def test_determinism(rng):
    t = random_template(rng, n=8)
    assert (
        build_synthetic_embeddings(t).vectors.tobytes()
        == build_synthetic_embeddings(t).vectors.tobytes()
    )


def test_file_round_trip(tmp_path, rng):
    vectors = rng.normal(size=(5, 32))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    d = DescriptorSet(vectors, np.ones(5, dtype=bool))
    path = tmp_path / "x.emb"
    save_embeddings(d, path)
    back = load_embeddings(path, expected_count=5)
    assert back.vectors.shape == (5, 32)
    assert np.allclose(back.vectors, vectors, atol=1e-6)


def test_file_round_trip_keeps_invalid_rows(tmp_path):
    # two clustered minutiae and one beyond the 96 px signature radius
    t = MinutiaeTemplate("c", (Minutia(0, 0, 0.3), Minutia(20, 5, 1.0), Minutia(400, 400, 2.0)))
    e = build_synthetic_embeddings(t)
    assert e.valid.tolist() == [True, True, False]
    path = tmp_path / "c.emb"
    save_embeddings(e, path)
    back = load_embeddings(path, expected_count=3)
    assert back.valid.tolist() == [True, True, False]
    assert np.allclose(back.vectors, e.vectors, atol=1e-6)


def test_save_rejects_invalid_row_that_is_not_zero(tmp_path):
    d = DescriptorSet(np.eye(2), np.array([True, False]))
    with pytest.raises(ValueError, match="zero row"):
        save_embeddings(d, tmp_path / "x.emb")
    assert not (tmp_path / "x.emb").exists()


@pytest.mark.parametrize(
    "row,message",
    [
        ([np.nan, 1.0], "not finite"),
        ([1e300, 1e300], "not finite"),  # overflows float32
        ([1e-50, 1e-50], "valid but all zero"),  # underflows float32
    ],
    ids=["nan", "overflow", "underflow"],
)
def test_save_rejects_row_that_would_not_load_back(tmp_path, row, message):
    d = DescriptorSet(np.array([[1.0, 0.0], row]), np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match=f"^embedding row 1 .*{message}"):
        save_embeddings(d, tmp_path / "x.emb")
    assert not (tmp_path / "x.emb").exists()


def loads_as_saved(d, path):
    """Save ``d`` and load it back; the loaded set, checked to hold the
    float32 form of ``d`` with its validity."""
    save_embeddings(d, path)
    back = load_embeddings(path, expected_count=len(d))
    assert np.array_equal(back.vectors, d.vectors.astype(np.float32))
    assert np.array_equal(back.valid, d.valid)
    return back


THREE = MinutiaeTemplate("three", (Minutia(0, 0, 0.3), Minutia(20, 5, 1.0), Minutia(9, 40, 2.0)))


def test_file_round_trip_keeps_valid_rows_of_extreme_scale(tmp_path):
    # the smallest and largest scales whose float32 form is finite and nonzero
    vectors = np.array([[3e-45, 0.0], [3e38, 3e38], [0.0, 0.0]])
    back = loads_as_saved(DescriptorSet(vectors, np.array([True, True, False])), tmp_path / "x.emb")
    q = Gallery().prepare_query(THREE, back).embedding
    assert q.valid.tolist() == [True, True, False]
    assert np.allclose(q.vectors, [[1.0, 0.0], [0.5**0.5, 0.5**0.5], [0.0, 0.0]])


def test_load_normalizes(tmp_path):
    # the file gives back the rows as saved; the gallery divides them by their norms
    vectors = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0]])
    back = loads_as_saved(DescriptorSet(vectors, np.array([True, False, True])), tmp_path / "n.emb")
    q = Gallery().prepare_query(THREE, back).embedding
    assert q.valid.tolist() == [True, False, True]
    assert np.allclose(q.vectors, [[1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.6, 0.0, 0.8, 0.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_non_finite_value(tmp_path, value):
    path = tmp_path / "f.emb"
    save_embeddings(DescriptorSet(np.eye(2), np.ones(2, dtype=bool)), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(EmbeddingFormatError, match="non-finite"):
        load_embeddings(path, expected_count=2)


def test_load_count_mismatch(tmp_path):
    d = DescriptorSet(np.eye(3), np.ones(3, dtype=bool))
    path = tmp_path / "c.emb"
    save_embeddings(d, path)
    with pytest.raises(EmbeddingFormatError, match="3.*2"):
        load_embeddings(path, expected_count=2)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(EmbeddingFormatError, match="magic"):
        load_embeddings(path, expected_count=1)


def test_load_truncated(tmp_path):
    d = DescriptorSet(np.eye(3), np.ones(3, dtype=bool))
    path = tmp_path / "t.emb"
    save_embeddings(d, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(EmbeddingFormatError, match="bytes"):
        load_embeddings(path, expected_count=3)


def soft_bins(values, bins, sigma):
    """(n, bins) Gaussian weights of angles on ``bins`` circular bins."""
    centers = -math.pi + (np.arange(bins) + 0.5) * (2.0 * math.pi / bins)
    gap = angular_difference(values[:, None], centers[None, :])
    return np.exp(-0.5 * (gap / sigma) ** 2)


def loop_reference(t):
    """Every signature of ``t`` from soft-bin weights built one minutia at a
    time, each from its own neighbor mask, as vectors and validity. Each
    histogram is the build's own (radial x angular, k) @ (k, direction)
    product over the minutia's k neighbors, since a BLAS kernel may round a
    product by its operands' shapes; the norms are ``np.linalg.norm``'s."""
    n = len(t)
    positions, thetas = t.positions(), t.thetas()
    radial_bins, angular_bins = embedding.RADIAL_BINS, embedding.ANGULAR_BINS
    direction_bins, radius = embedding.DIRECTION_BINS, embedding.SYNTH_RADIUS
    sigma_r = 0.5 / radial_bins
    sigma_a = 0.5 * (2.0 * math.pi / angular_bins)
    sigma_d = 0.5 * (2.0 * math.pi / direction_bins)
    radial_centers = (np.arange(radial_bins) + 0.5) / radial_bins
    log_scale = math.log1p(radius)
    cells = radial_bins * angular_bins
    hist = np.zeros((n, embedding.DIM))
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        dx = positions[:, 0] - positions[i, 0]
        dy = positions[:, 1] - positions[i, 1]
        dist = np.hypot(dx, dy)
        mask = (dist <= radius) & (np.arange(n) != i)
        r = np.log1p(dist[mask]) / log_scale
        ray = np.arctan2(-dy[mask], dx[mask]) - thetas[i]
        ddir = wrap_signed(thetas[mask] - thetas[i])
        w_r = np.exp(-0.5 * ((r[:, None] - radial_centers[None, :]) / sigma_r) ** 2)
        w_a = soft_bins(wrap_signed(ray), angular_bins, sigma_a)
        w_d = soft_bins(ddir, direction_bins, sigma_d)
        w_ra = (w_r[:, :, None] * w_a[:, None, :]).reshape(len(r), cells)
        hist[i] = np.matmul(np.ascontiguousarray(w_ra.T), w_d).ravel()
        valid[i] = mask.any()
    norms = np.linalg.norm(hist, axis=1)
    vectors = np.zeros((n, embedding.DIM))
    vectors[valid] = hist[valid] / norms[valid, None]
    return vectors, valid


@st.composite
def templates_near_radius(draw, radius):
    """0-60 minutiae on an extent up to 400 px; some are copies of another
    minutia's position and some lie at ``radius`` or 0.5 px either side of
    it from another minutia, where the neighbor mask decides."""
    extent = draw(st.floats(1.0, 400.0))
    coord = st.floats(0.0, extent)
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    n = draw(st.integers(0, 50))
    minutiae = [Minutia(draw(coord), draw(coord), draw(angle)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 10)) if minutiae else 0):
        anchor = draw(st.sampled_from(minutiae))
        r = draw(st.sampled_from([0.0, radius - 0.5, radius, radius + 0.5]))
        phi = draw(angle)
        minutiae.append(
            Minutia(anchor.x + r * math.cos(phi), anchor.y + r * math.sin(phi), draw(angle))
        )
    return MinutiaeTemplate("h", tuple(minutiae))


@pytest.mark.parametrize("cfg", EMBEDDING_SHAPES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_build_equals_loop_reference_exactly(cfg, data):
    with embedding_shape(cfg):
        t = data.draw(templates_near_radius(embedding.SYNTH_RADIUS))
        e = build_synthetic_embeddings(t)
        vectors, valid = loop_reference(t)
    assert np.array_equal(e.vectors, vectors)
    assert np.array_equal(e.valid, valid)


@pytest.mark.parametrize("cfg", EMBEDDING_SHAPES)
@pytest.mark.parametrize("n_cluster", [0, 1, 6])
def test_isolated_minutiae_equal_loop_reference_exactly(cfg, n_cluster):
    # a minutia with no neighbor within the radius has a zero histogram and
    # norm; the normalizing divide skips it and leaves its zero row
    rng = np.random.default_rng(n_cluster)
    cluster = random_template(rng, n=n_cluster, extent=80.0, min_spacing=4.0).minutiae
    with embedding_shape(cfg):
        step = 3.0 * embedding.SYNTH_RADIUS
        lone = tuple(Minutia(200.0 + k * step, -step, 0.5 * k) for k in range(4))
        t = MinutiaeTemplate("lone", lone[:2] + cluster + lone[2:])
        e = build_synthetic_embeddings(t)
        vectors, valid = loop_reference(t)
    assert np.array_equal(e.vectors, vectors)
    assert np.array_equal(e.valid, valid)
    assert valid.sum() == (n_cluster if n_cluster > 1 else 0)
    assert not e.vectors[~valid].any()
