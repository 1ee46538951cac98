import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_template
from fpfusion.evaluation import (
    CmcCurve,
    Gallery,
    IdentificationResult,
    cmc,
    fuse_ranks,
    identify_all,
    write_cmc,
    write_results,
)
from fpfusion.fusion import CHANNELS, FusionConfig
from fpfusion.synthetic import PerturbConfig, SynthConfig, write_dataset
from fpfusion.templates import MinutiaeTemplate


def small_gallery(rng, n=5):
    gallery = Gallery()
    for i in range(n):
        gallery.enroll(random_template(rng, n=12, extent=250.0, tid=f"g{i:02d}"))
    return gallery


def result(qid, rank):
    return IdentificationResult(qid, (), rank)


class TestGallery:
    def test_enroll_counts(self, rng):
        gallery = small_gallery(rng, n=3)
        assert len(gallery) == 3

    def test_duplicate_id(self, rng):
        gallery = Gallery()
        t = random_template(rng, n=5, tid="dup")
        gallery.enroll(t)
        with pytest.raises(ValueError, match="dup"):
            gallery.enroll(t)

    def test_enroll_empty_template(self, rng):
        gallery = small_gallery(rng, n=2)
        gallery.enroll(MinutiaeTemplate("empty", ()))
        query = gallery.prepare_query(gallery.entry("g00").template)
        res = identify_all(gallery, query, mate_id="g00")["mcc"]
        scores = dict(res.candidates)
        assert scores["empty"] == 0.0
        assert res.rank_of_mate == 1

    def test_embedding_count_mismatch(self, rng):
        from fpfusion.descriptors import DescriptorSet

        gallery = Gallery()
        t = random_template(rng, n=5, tid="t")
        bad = DescriptorSet(np.eye(3), np.ones(3, bool))
        with pytest.raises(ValueError):
            gallery.enroll(t, embeddings=bad)

    def test_query_embedding_count_mismatch(self, rng):
        from fpfusion.descriptors import DescriptorSet

        gallery = Gallery()
        t = random_template(rng, n=5, tid="q")
        extra = DescriptorSet(np.eye(10), np.ones(10, bool))
        with pytest.raises(ValueError, match="embedding count 10"):
            gallery.prepare_query(t, embeddings=extra)


    def test_entries_hold_unit_rows(self, rng):
        from fpfusion.descriptors import DescriptorSet
        from fpfusion.embedding import build_synthetic_embeddings
        from fpfusion.mcc import build_mcc_set

        gallery = Gallery()
        t = random_template(rng, n=6, tid="t")
        emb = build_synthetic_embeddings(t)
        vectors = emb.vectors.copy()
        vectors[1] = 0.0
        given = vectors.copy()
        gallery.enroll(t, embeddings=DescriptorSet(vectors, emb.valid))
        entry = gallery.entry("t")
        assert np.array_equal(vectors, given)  # the caller's array is not normalized in place
        raw = build_mcc_set(t).vectors
        norms = np.linalg.norm(raw, axis=1)
        assert np.array_equal(entry.mcc.vectors, raw / np.where(norms > 0, norms, 1.0)[:, None])
        assert np.allclose(np.linalg.norm(entry.mcc.vectors[entry.mcc.valid], axis=1), 1.0)
        assert not entry.embedding.valid[1]
        # the synthetic stand-in leaves a minutia without neighbors a zero, invalid row
        valid = entry.embedding.valid
        assert valid.tolist() == [v and i != 1 for i, v in enumerate(emb.valid)]
        assert np.allclose(np.linalg.norm(entry.embedding.vectors[valid], axis=1), 1.0)

    def test_entry_embeddings_are_the_synthetic_set(self, rng):
        from fpfusion.embedding import build_synthetic_embeddings

        gallery = Gallery()
        for i in range(4):
            t = random_template(rng, n=20, extent=250.0, tid=f"t{i}")
            gallery.enroll(t)
            built = build_synthetic_embeddings(t)
            for entry in (gallery.entry(t.id), gallery.prepare_query(t)):
                assert np.array_equal(entry.embedding.vectors, built.vectors)
                assert np.array_equal(entry.embedding.valid, built.valid)


class TestIdentify:
    def test_exact_copy_rank_one_all_matchers(self, rng):
        gallery = small_gallery(rng, n=5)
        query = gallery.prepare_query(gallery.entry("g02").template)
        results = identify_all(gallery, query, mate_id="g02")
        for ch in CHANNELS:
            assert results[ch].rank_of_mate == 1

    def test_single_entry_gallery(self, rng):
        gallery = small_gallery(rng, n=1)
        query = gallery.prepare_query(gallery.entry("g00").template)
        assert identify_all(gallery, query, mate_id="g00")["feature"].rank_of_mate == 1

    def test_deterministic_repeat(self, rng):
        gallery = small_gallery(rng, n=4)
        query = gallery.prepare_query(random_template(rng, n=10, tid="q"))
        a = identify_all(gallery, query)
        b = identify_all(gallery, query)
        assert a == b

    def test_empty_gallery_errors(self, rng):
        query = Gallery().prepare_query(random_template(rng, n=5))
        with pytest.raises(ValueError):
            identify_all(Gallery(), query)

    def test_candidates_sorted_with_id_tiebreak(self, rng):
        gallery = small_gallery(rng, n=5)
        query = gallery.prepare_query(random_template(rng, n=10, tid="q"))
        res = identify_all(gallery, query)["mcc"]
        scores = [s for _, s in res.candidates]
        assert scores == sorted(scores, reverse=True)
        for (ida, sa), (idb, sb) in zip(res.candidates, res.candidates[1:]):
            if sa == sb:
                assert ida < idb


class TestCmc:
    def test_counting(self):
        curve = cmc([result("a", 1), result("b", 1), result("c", 3)], 3)
        assert curve.accuracies == pytest.approx((2 / 3, 2 / 3, 1.0))

    def test_all_rank_one(self):
        curve = cmc([result("a", 1), result("b", 1)], 4)
        assert curve.accuracies == (1.0, 1.0, 1.0, 1.0)

    def test_missing_mate_counts_as_miss(self):
        curve = cmc([result("a", None), result("b", 1)], 2)
        assert curve.accuracies == (0.5, 0.5)

    def test_monotone(self, rng):
        results = [result(f"q{i}", int(rng.integers(1, 10))) for i in range(40)]
        curve = cmc(results, 12)
        acc = curve.accuracies
        assert all(a <= b for a, b in zip(acc, acc[1:]))
        assert acc[-1] <= 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            cmc([], 5)


class TestRankLevelCmc:
    def test_min_rank(self):
        curve = cmc(fuse_ranks([result("q", 3)], [result("q", 1)]), 3)
        assert curve[1] == 1.0

    def test_equal_ranks(self):
        curve = cmc(fuse_ranks([result("q", 2)], [result("q", 2)]), 2)
        assert curve.accuracies == (0.0, 1.0)

    def test_disjoint_queries_error(self):
        with pytest.raises(ValueError):
            cmc(fuse_ranks([result("q1", 1)], [result("q2", 1)]), 2)

    def test_dominates_single_channels(self, rng):
        res_a = [result(f"q{i}", int(rng.integers(1, 15))) for i in range(50)]
        res_b = [result(f"q{i}", int(rng.integers(1, 15))) for i in range(50)]
        fused = cmc(fuse_ranks(res_a, res_b), 15)
        for k in range(1, 16):
            assert fused[k] >= cmc(res_a, 15)[k]
            assert fused[k] >= cmc(res_b, 15)[k]

    @pytest.mark.parametrize("side", [0, 1])
    def test_repeated_query_id_error(self, side):
        # a dict keyed by query id would keep one of the repeats and shrink the
        # CMC denominator below the channel curves'
        lists = [[result("q", 1), result("q", 9)], [result("q", 5), result("q", 7)]]
        lists[1 - side] = [result("q", 3)]
        with pytest.raises(ValueError, match="'q'"):
            fuse_ranks(*lists)

    def test_missing_rank_takes_the_other(self):
        fused = fuse_ranks([result("q", None)], [result("q", 4)])
        assert fused[0].rank_of_mate == 4

    def test_missing_in_both_is_a_miss(self):
        fused = fuse_ranks([result("q", None), result("p", 1)], [result("q", None), result("p", 2)])
        assert cmc(fused, 2).accuracies == (0.5, 0.5)


class TestOutputFiles:
    def test_results_csv_shape(self, tmp_path):
        results = [
            IdentificationResult("q1", (("g1", 0.5), ("g2", 0.25), ("g3", 0.1)), 1, "mcc"),
            IdentificationResult("q2", (("g1", 0.9), ("g2", 0.8), ("g3", 0.0)), 2, "mcc"),
        ]
        path = tmp_path / "results.csv"
        write_results(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,rank,gallery_id,score,channel"
        assert len(lines) == 7
        assert lines[1] == "q1,1,g1,0.500000,mcc"

    def test_cmc_csv_shape(self, tmp_path):
        curve = CmcCurve(tuple(k / 10 for k in range(1, 11)))
        path = tmp_path / "cmc.csv"
        write_cmc(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,accuracy"
        assert len(lines) == 11
        assert lines[1] == "1,0.100000"

    def test_ids_with_comma_or_quote_round_trip(self, tmp_path):
        results = [IdentificationResult('q,"1"', (("f,1", 0.5), ('g"2', 0.25), ("h", 0.0)), 1, "emb")]
        path = tmp_path / "results.csv"
        write_results(results, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            ['q,"1"', "1", "f,1", "0.500000", "emb"],
            ['q,"1"', "2", 'g"2', "0.250000", "emb"],
            ['q,"1"', "3", "h", "0.000000", "emb"],
        ]
        assert path.read_text().splitlines()[3] == '"q,""1""",3,h,0.000000,emb'

    def test_byte_stable(self, tmp_path):
        results = [IdentificationResult("q", (("g", 1 / 3),), 1, "emb")]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(results, a)
        write_results(results, b)
        assert a.read_bytes() == b.read_bytes()


class TestCmcDepth:
    @pytest.mark.parametrize("k_max", [0, -1])
    def test_cmc_rejects_depth_below_one(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            cmc([result("a", 1)], k_max)

    @pytest.mark.parametrize("k", [0, -1])
    def test_curve_rejects_rank_below_one(self, k):
        curve = CmcCurve((0.5, 1.0))
        with pytest.raises(IndexError):
            curve[k]
        assert curve[1] == 0.5 and curve[2] == 1.0


# Identifications whose result bytes no other test pins: dense templates
# with near-full queries, and the seed-42 30-finger benchmark set with one
# fusion weight at 0.
FROZEN_IDENTIFICATION_CASES = {
    "dense": (
        SynthConfig(seed=42, n_fingers=10, min_minutiae=80, max_minutiae=120, extent=(700.0, 700.0)),
        PerturbConfig(
            keep_min=0.85, keep_max=0.95, crop_radius_min=600.0, crop_radius_max=700.0,
            spurious_mean=5.0,
        ),
        FusionConfig(),
    ),
    "w1=1,w2=0": (SynthConfig(seed=42, n_fingers=30), PerturbConfig(), FusionConfig(w1=1.0)),
    "w1=0,w2=1": (SynthConfig(seed=42, n_fingers=30), PerturbConfig(), FusionConfig(w1=0.0)),
}
FROZEN_IDENTIFICATION = json.loads(
    (Path(__file__).parent / "data" / "identification_results.json").read_text()
)


def identification_digests(case, work):
    """sha256 of each channel's ``write_results`` file for every query of a
    ``FROZEN_IDENTIFICATION_CASES`` dataset, as ``fpfusion benchmark`` runs it."""
    synth, perturb, cfg = FROZEN_IDENTIFICATION_CASES[case]
    fingers, queries, truth = write_dataset(work / "data", synth, perturb)
    gallery = Gallery()
    for t in fingers:
        gallery.enroll(t)
    results = [
        identify_all(gallery, gallery.prepare_query(q), cfg, mate_id=truth[q.id]) for q in queries
    ]
    digests = {}
    for ch in CHANNELS:
        path = work / f"results_{ch}.csv"
        write_results([r[ch] for r in results], path)
        digests[ch] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(FROZEN_IDENTIFICATION_CASES))
def test_identification_results_bytes_are_frozen(tmp_path, case):
    assert identification_digests(case, tmp_path) == FROZEN_IDENTIFICATION[case]
