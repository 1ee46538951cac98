import math
from dataclasses import fields

import numpy as np
import pytest

from fpfusion.embedding import build_synthetic_embeddings
from fpfusion.mcc import build_mcc_set
from fpfusion.pairing import cosine_similarity
from fpfusion.synthetic import (
    PerturbConfig,
    SynthConfig,
    finger_rng,
    generate_finger,
    generate_gallery,
    perturb_to_latent,
    write_dataset,
)
from fpfusion.templates import load_template

IDENTITY_PERTURB = PerturbConfig(
    rotation_max=0.0,
    translation_max=0.0,
    position_jitter=0.0,
    angle_jitter=0.0,
    keep_min=1.0,
    keep_max=1.0,
    spurious_mean=0.0,
    crop_radius_min=10_000.0,
    crop_radius_max=10_000.0,
)


class TestConfigChecks:
    @pytest.mark.parametrize("field", [f.name for f in fields(PerturbConfig)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_perturb_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PerturbConfig(**{field: value})

    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"rotation_max": -1.0}, "rotation_max"),
            ({"translation_max": -0.5}, "translation_max"),
            ({"crop_radius_min": -1.0}, "crop_radius_min"),
            ({"crop_radius_min": 300.0}, "crop_radius_min"),
            ({"crop_radius_min": 50.0, "crop_radius_max": 40.0}, "crop_radius_max"),
        ],
    )
    def test_perturb_ranges_rejected(self, changes, field):
        with pytest.raises(ValueError, match=field):
            PerturbConfig(**changes)

    def test_perturb_zero_values_allowed(self):
        PerturbConfig(rotation_max=0.0, translation_max=0.0, crop_radius_min=0.0, spurious_mean=0.0)

    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"min_spacing": math.nan}, "min_spacing"),
            ({"min_spacing": math.inf}, "min_spacing"),
            ({"min_spacing": -1.0}, "min_spacing"),
            ({"min_minutiae": 0}, "min_minutiae"),
            ({"min_minutiae": 0, "max_minutiae": 0}, "min_minutiae"),
        ],
    )
    def test_synth_values_rejected(self, changes, field):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**changes)

    def test_synth_zero_spacing_allowed(self):
        SynthConfig(min_spacing=0.0, min_minutiae=1, max_minutiae=1)


class TestGenerateFinger:
    def test_deterministic(self):
        cfg = SynthConfig(seed=7)
        a = generate_finger(finger_rng(cfg, 0), cfg)
        b = generate_finger(finger_rng(cfg, 0), cfg)
        assert a.minutiae == b.minutiae

    def test_spacing(self):
        cfg = SynthConfig(seed=3, min_spacing=12.0)
        t = generate_finger(finger_rng(cfg, 1), cfg)
        pos = t.positions()
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                assert math.hypot(*(pos[i] - pos[j])) >= cfg.min_spacing

    def test_count_in_range(self):
        cfg = SynthConfig(seed=5, min_minutiae=30, max_minutiae=60)
        for i in range(5):
            t = generate_finger(finger_rng(cfg, i), cfg)
            assert 30 <= len(t) <= 60

    def test_unsatisfiable_spacing_warns(self):
        cfg = SynthConfig(
            seed=1, min_minutiae=50, max_minutiae=50, extent=(30.0, 30.0), min_spacing=20.0
        )
        with pytest.warns(UserWarning, match="spacing"):
            t = generate_finger(finger_rng(cfg, 0), cfg)
        assert 0 < len(t) < 50


class TestPerturb:
    def test_identity_config(self):
        cfg = SynthConfig(seed=11)
        t = generate_finger(finger_rng(cfg, 0), cfg, "f")
        q, corr = perturb_to_latent(t, np.random.default_rng(0), IDENTITY_PERTURB)
        assert q.minutiae == t.minutiae
        assert corr == list(range(len(t)))

    def test_rotation_only_descriptor_invariance(self):
        cfg = SynthConfig(seed=13)
        t = generate_finger(finger_rng(cfg, 0), cfg, "f")
        rot_only = PerturbConfig(
            rotation_max=math.pi / 6,
            translation_max=0.0,
            position_jitter=0.0,
            angle_jitter=0.0,
            keep_min=1.0,
            keep_max=1.0,
            spurious_mean=0.0,
            crop_radius_min=10_000.0,
            crop_radius_max=10_000.0,
        )
        q, corr = perturb_to_latent(t, np.random.default_rng(1), rot_only)
        mcc_t, mcc_q = build_mcc_set(t), build_mcc_set(q)
        emb_t, emb_q = build_synthetic_embeddings(t), build_synthetic_embeddings(q)
        for j, i in enumerate(corr):
            if mcc_t.valid[i]:
                assert cosine_similarity(mcc_t.vectors[i], mcc_q.vectors[j]) >= 1 - 1e-6
            if emb_t.valid[i]:
                assert cosine_similarity(emb_t.vectors[i], emb_q.vectors[j]) >= 1 - 1e-6

    def test_default_reduces_count(self):
        cfg = SynthConfig(seed=17, min_minutiae=40, max_minutiae=40)
        t = generate_finger(finger_rng(cfg, 0), cfg, "f")
        counts = []
        rng = np.random.default_rng(42)
        for _ in range(100):
            q, _ = perturb_to_latent(t, rng)
            counts.append(len(q))
        assert np.mean(counts) < len(t)

    def test_correspondences_mark_spurious(self):
        cfg = SynthConfig(seed=19)
        t = generate_finger(finger_rng(cfg, 0), cfg, "f")
        pcfg = PerturbConfig(spurious_mean=10.0)
        q, corr = perturb_to_latent(t, np.random.default_rng(2), pcfg)
        assert len(corr) == len(q)
        genuine = [c for c in corr if c >= 0]
        assert all(0 <= c < len(t) for c in genuine)

    def test_empty_template_rejected(self):
        from fpfusion.templates import MinutiaeTemplate

        with pytest.raises(ValueError):
            perturb_to_latent(MinutiaeTemplate("e", ()), np.random.default_rng(0))


class TestDataset:
    def test_layout_and_determinism(self, tmp_path):
        cfg = SynthConfig(seed=23, n_fingers=4)
        write_dataset(tmp_path / "a", cfg)
        write_dataset(tmp_path / "b", cfg)
        a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert (tmp_path / "a" / "truth.csv").read_text().splitlines()[0] == "query_id,mate_id"
        t = load_template(tmp_path / "a" / "gallery" / "f0000.mnt")
        assert len(t) >= cfg.min_minutiae

    def test_gallery_ids(self):
        cfg = SynthConfig(seed=29, n_fingers=3)
        ids = [t.id for t in generate_gallery(cfg)]
        assert ids == ["f0000", "f0001", "f0002"]
