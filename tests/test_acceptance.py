"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Pair-level criteria score a template pair as ``fpfusion match`` does
(``conftest.match_pair``: both sides prepared by a ``Gallery``, scored by
``match_gallery``). The synthetic-benchmark criterion runs the full
200-finger pipeline twice (byte-identity check) and takes about 25 s.
"""

import json
import math
from pathlib import Path

import numpy as np

from conftest import (
    cosine_similarity,
    live_rows,
    match_pair,
    pair_compatibility,
    padded,
    random_template,
    rotate_template,
)
from fpfusion.cli import main
from fpfusion.descriptors import DescriptorSet
from fpfusion.embedding import build_synthetic_embeddings, load_embeddings, save_embeddings
from fpfusion.evaluation import Gallery, identify_all, write_cmc, write_results
from fpfusion.fusion import CHANNELS, FusionConfig
from fpfusion.mcc import build_mcc_set
from fpfusion.pairing import select_pairs
from fpfusion.relaxation import (
    PAIR_SLOTS,
    compatibilities,
    relax_scores,
    side_geometry,
)
from fpfusion.synthetic import SynthConfig, finger_rng, generate_finger
from fpfusion.templates import Minutia, load_template, save_template

BASELINE = json.loads((Path(__file__).parent / "data" / "benchmark_baseline.json").read_text())


def report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_compatibility_oracle():
    """Triple-sigmoid compatibility at zero discrepancy matches 0.75392."""
    independent = 1.0
    for mu, tau in zip((0.0416, 0.7853, 0.2094), (-30.0, -9.0, -16.8)):
        independent *= 1.0 / (1.0 + math.exp(tau * mu))
    m1 = Minutia(0, 0, 0.0)
    m2 = Minutia(10, 5, 0.3)
    produced = pair_compatibility((m1, m1), (m2, m2))
    report(
        "criterion 1: compatibility at zero discrepancy = 0.75392 +- 1e-4",
        abs(independent - 0.75392) <= 1e-4 and abs(produced - independent) <= 1e-12,
    )


def test_criterion_2_relaxation_oracle():
    """1000 random instances match a straight-line reference within 1e-12."""
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        ta = random_template(rng, n=max(n, 2), extent=400.0, tid="a")
        tb = random_template(rng, n=max(n, 2), extent=400.0, tid="b")
        gamma0 = rng.uniform(0, 1, size=n)
        w, iterations = float(rng.uniform(0, 1)), int(rng.integers(1, 6))
        # the pair list (i, i), i < n, relaxed as the live rows of one
        # PAIR_SLOTS-wide list
        rho = compatibilities(
            side_geometry(ta.positions()[:n], ta.thetas()[:n]),
            side_geometry(tb.positions()[:n], tb.thetas()[:n]),
        )
        rho_p = live_rows(padded(rho, (PAIR_SLOTS, PAIR_SLOTS)), np.array([n]))
        gamma_p = padded(gamma0, (PAIR_SLOTS,))
        out = relax_scores(rho_p, gamma_p, np.array([n]), w, iterations)
        # straight-line reference
        if n == 1:
            expected = [float(gamma0[0])]
        else:
            gamma = list(gamma0)
            for _ in range(iterations):
                new = []
                for t in range(n):
                    acc = sum(rho[t][k] * gamma[k] for k in range(n) if k != t)
                    new.append(w * gamma[t] + (1 - w) * acc / (n - 1))
                gamma = new
            expected = gamma
        got = list(out[0, :n])
        ok &= all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))
        ok &= all(0.0 <= g <= 1.0 for g in got)
    report("criterion 2: relaxation matches reference on 1000 instances", ok)


def test_criterion_3_lsa_oracle():
    """Greedy selection equals the brute-force re-scan oracle on 10^4 matrices."""
    rng = np.random.default_rng(3)
    instances = []
    for _ in range(10_000):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        values = rng.uniform(-1, 1, size=(r, c))
        gated = rng.uniform(size=(r, c)) < 0.25
        n_r = int(rng.integers(0, 13))
        instances.append((r, c, values, gated, n_r))
    # one selection pass over all matrices, each padded with -inf to 8 x 8
    work = np.concatenate(
        [
            padded(np.where(gated, -np.inf, values), (8, 8), -np.inf)
            for *_, values, gated, _ in instances
        ]
    )
    rows, cols, scores, count = select_pairs(work, np.array([n_r for *_, n_r in instances]))
    ok = True
    for k, (r, c, values, gated, n_r) in enumerate(instances):
        got = [(int(rows[k, i]), int(cols[k, i]), float(scores[k, i])) for i in range(count[k])]
        used_r, used_c = set(), set()
        picked = []
        for _ in range(n_r):
            best = None
            for i in range(r):
                for j in range(c):
                    if gated[i, j] or i in used_r or j in used_c:
                        continue
                    if best is None or values[i, j] > best[2]:
                        best = (i, j, values[i, j])
            if best is None:
                break
            picked.append(best)
            used_r.add(best[0])
            used_c.add(best[1])
        picked.sort(key=lambda p: (-p[2], p[0], p[1]))
        ok &= got == picked
        if not ok:
            break
    report("criterion 3: greedy selection equals brute-force oracle (10^4 trials)", ok)


def test_criterion_4_descriptor_invariance():
    """Rigid motion preserves per-minutia cosine >= 1 - 1e-6 on 100 templates."""
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        t = random_template(rng, n=int(rng.integers(6, 14)), extent=250.0)
        alpha = float(rng.uniform(-math.pi, math.pi))
        moved = rotate_template(
            t, alpha, float(rng.uniform(-80, 80)), float(rng.uniform(-80, 80)),
            center=(125.0, 125.0),
        )
        for build in (build_mcc_set, build_synthetic_embeddings):
            da, db = build(t), build(moved)
            for i in range(len(t)):
                if da.valid[i]:
                    ok &= cosine_similarity(da.vectors[i], db.vectors[i]) >= 1 - 1e-6
    report("criterion 4: descriptor rigid-motion invariance on 100 templates", ok)


def test_criterion_5_fusion_degeneracies():
    """Weight degeneracies reproduce single channels; dead channel falls back."""
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        ta = random_template(rng, n=int(rng.integers(6, 14)), extent=250.0, tid="a")
        tb = random_template(rng, n=int(rng.integers(6, 14)), extent=250.0, tid="b")
        emb_a, emb_b = build_synthetic_embeddings(ta), build_synthetic_embeddings(tb)

        out = match_pair(ta, tb, emb_a, emb_b, FusionConfig(w1=1.0, w2=0.0))
        ok &= abs(out["score"].score - out["mcc"].score) <= 1e-12
        out = match_pair(ta, tb, emb_a, emb_b, FusionConfig(w1=0.0, w2=1.0))
        ok &= abs(out["score"].score - out["emb"].score) <= 1e-12
        dead = DescriptorSet(emb_a.vectors, np.zeros(len(emb_a), dtype=bool))
        out = match_pair(ta, tb, dead, emb_b)
        fused, single = out["feature"], out["mcc"]
        ok &= fused.score == single.score and fused.raw_sum == single.raw_sum
    report("criterion 5: fusion degeneracies on 100 template pairs", ok)


def test_criterion_6_synthetic_benchmark(tmp_path):
    """Seed-42, 200-finger benchmark: accuracy floors, fusion trend, dominance,
    byte-identical repetition, regression against the frozen baseline."""
    args = ["benchmark", "--seed", "42", "--n-fingers", "200", "--k-max", "10"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0

    rows = {}
    for line in (out_a / "summary.csv").read_text().splitlines()[1:]:
        name, r1, r5, r10 = line.split(",")
        rows[name] = (float(r1), float(r5), float(r10))

    ok_floor = all(rows[ch][0] >= 0.60 for ch in CHANNELS)
    ok_trend = rows["feature"][0] >= max(rows["mcc"][0], rows["emb"][0]) - 0.02

    curves = {}
    for name in ("mcc", "emb", "rank"):
        curves[name] = [
            float(line.split(",")[1])
            for line in (out_a / f"cmc_{name}.csv").read_text().splitlines()[1:]
        ]
    ok_dominance = all(
        curves["rank"][k] >= max(curves["mcc"][k], curves["emb"][k])
        for k in range(len(curves["rank"]))
    )

    ok_bytes = True
    for rel in sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()):
        ok_bytes &= (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    ok_baseline = all(
        abs(rows[name][i] - BASELINE["summary"][name][key]) <= 1e-9
        for name in rows
        for i, key in enumerate(("rank1", "rank5", "rank10"))
    )

    report("criterion 6a: every matcher rank-1 >= 60%", ok_floor)
    report("criterion 6b: feature fusion within 2pp of best single channel", ok_trend)
    report("criterion 6c: rank-level CMC dominates single channels", ok_dominance)
    report("criterion 6d: benchmark byte-identical across runs", ok_bytes)
    report("criterion 6: summary matches frozen regression baseline", ok_baseline)


def test_criterion_7_exact_copy_identification():
    """50 enrolled fingers, exact-copy queries: rank-1 = 100% for all matchers."""
    cfg = SynthConfig(seed=7, n_fingers=50)
    gallery = Gallery()
    templates = [
        generate_finger(finger_rng(cfg, i), cfg, f"f{i:04d}") for i in range(50)
    ]
    for t in templates:
        gallery.enroll(t)
    ok = True
    for t in templates:
        results = identify_all(gallery, gallery.entry(t.id), mate_id=t.id)
        ok &= all(results[ch].rank_of_mate == 1 for ch in CHANNELS)
    report("criterion 7: exact-copy queries rank-1 on all four matchers", ok)


def test_criterion_8_format_round_trips(tmp_path):
    """Template and embedding files round-trip; CSVs are byte-stable."""
    rng = np.random.default_rng(8)
    t = random_template(rng, n=15, extent=400.0, tid="rt")
    path = tmp_path / "rt.mnt"
    save_template(t, path)
    back = load_template(path)
    ok = len(back) == len(t)
    for a, b in zip(t.minutiae, back.minutiae):
        ok &= (
            abs(a.x - b.x) <= 1e-6
            and abs(a.y - b.y) <= 1e-6
            and abs(a.theta - b.theta) <= 1e-6
            and abs(a.quality - b.quality) <= 1e-6
        )

    emb = build_synthetic_embeddings(t)
    emb_path = tmp_path / "rt.emb"
    save_embeddings(emb, emb_path)
    emb_back = load_embeddings(emb_path, expected_count=len(t))
    ok &= bool(np.all(np.abs(emb.vectors - emb_back.vectors) <= 1e-6))

    from fpfusion.evaluation import CmcCurve, IdentificationResult

    results = [IdentificationResult("q", (("g1", 1 / 3), ("g2", 0.0)), 1, "mcc")]
    curve = CmcCurve((0.5, 1.0))
    for writer, payload in ((write_results, results), (write_cmc, curve)):
        p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        writer(payload, p1)
        writer(payload, p2)
        ok &= p1.read_bytes() == p2.read_bytes()
    report("criterion 8: file format round-trips and byte-stable CSVs", ok)
