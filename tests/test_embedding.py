import numpy as np
import pytest

from conftest import random_template, rotate_template
from fpfusion.descriptors import DescriptorSet
from fpfusion.embedding import (
    EmbeddingConfig,
    EmbeddingFormatError,
    build_synthetic_embeddings,
    load_embeddings,
    save_embeddings,
)
from fpfusion.pairing import cosine_similarity
from fpfusion.templates import Minutia, MinutiaeTemplate


def test_unit_norm(rng):
    t = random_template(rng, n=12, extent=200.0)
    e = build_synthetic_embeddings(t)
    norms = np.linalg.norm(e.vectors, axis=1)
    assert np.allclose(norms[e.valid], 1.0, atol=1e-6)


def test_no_neighbor_sentinel():
    t = MinutiaeTemplate("one", (Minutia(0, 0, 0.3),))
    e = build_synthetic_embeddings(t)
    expected = np.zeros(256)
    expected[0] = 1.0
    assert np.array_equal(e.vectors[0], expected)
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


def test_config_bin_budget():
    with pytest.raises(ValueError):
        EmbeddingConfig(dim=16, radial_bins=4, angular_bins=8, direction_bins=8)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -5.0])
def test_config_rejects_radius_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="synth_radius"):
        EmbeddingConfig(synth_radius=radius)


def test_file_round_trip(tmp_path, rng):
    vectors = rng.normal(size=(5, 32))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    d = DescriptorSet("x", vectors, np.ones(5, dtype=bool))
    path = tmp_path / "x.emb"
    save_embeddings(d, path)
    back = load_embeddings(path, expected_count=5)
    assert back.vectors.shape == (5, 32)
    assert np.allclose(back.vectors, vectors, atol=1e-6)


def test_load_normalizes(tmp_path):
    d = DescriptorSet("x", np.array([[2.0, 0.0, 0.0, 0.0]]), np.ones(1, dtype=bool))
    path = tmp_path / "n.emb"
    save_embeddings(d, path)
    back = load_embeddings(path, expected_count=1)
    assert np.allclose(back.vectors[0], [1.0, 0.0, 0.0, 0.0])


def test_load_count_mismatch(tmp_path):
    d = DescriptorSet("x", np.eye(3), np.ones(3, dtype=bool))
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
    d = DescriptorSet("x", np.eye(3), np.ones(3, dtype=bool))
    path = tmp_path / "t.emb"
    save_embeddings(d, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(EmbeddingFormatError, match="bytes"):
        load_embeddings(path, expected_count=3)
