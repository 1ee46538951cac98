from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fpfusion.fusion as fusion
from conftest import padded, random_template, rotate_template
from fpfusion.embedding import build_synthetic_embeddings
from fpfusion.evaluation import Gallery, IdentificationResult, fuse_ranks, identify_all
from fpfusion.fusion import CHANNELS, FusionConfig, match_all_channels
from fpfusion.mcc import build_mcc_set
from fpfusion.relaxation import (
    PAIR_SLOTS,
    RelaxationParams,
    compatibilities,
    relax_scores,
    side_geometry,
    top_scores,
)
from fpfusion.templates import MinutiaeTemplate


def descriptor_pair(rng, n=10, tid_a="a", tid_b="b"):
    ta = random_template(rng, n=n, extent=250.0, tid=tid_a)
    tb = random_template(rng, n=n, extent=250.0, tid=tid_b)
    return ta, tb, build_mcc_set(ta), build_mcc_set(tb), build_synthetic_embeddings(
        ta
    ), build_synthetic_embeddings(tb)


def invalidate(d):
    return type(d)(d.template_id, d.vectors, np.zeros(len(d), dtype=bool))


def channel(name, ta, tb, da, db, cfg=None):
    """One channel's result, with ``da``/``db`` filling both descriptor slots."""
    return match_all_channels(ta, tb, da, db, da, db, cfg)[name]


class TestMatchSingle:
    def test_self_match_equals_relaxation_oracle(self, rng):
        ta = random_template(rng, n=10, extent=200.0)
        mcc = build_mcc_set(ta)
        result = channel("mcc", ta, ta, mcc, mcc)
        # independent expectation: self-pairs all score 1, relaxed by Eq-style
        # recurrence with the self-geometry compatibility matrix
        params = RelaxationParams()
        side = side_geometry(ta.positions(), ta.thetas())
        rho = padded(compatibilities(side, side, params), (PAIR_SLOTS, PAIR_SLOTS))
        n = np.array([10])
        relaxed = relax_scores(rho, padded(np.ones(10), (PAIR_SLOTS,)), n, params)
        expected = top_scores(relaxed, n, np.array([8]))[0][0]
        assert result.score == pytest.approx(expected, abs=1e-6)

    def test_empty_template_scores_zero(self, rng):
        ta = random_template(rng, n=5)
        empty = MinutiaeTemplate("e", ())
        mcc = build_mcc_set(ta)
        empty_mcc = build_mcc_set(empty)
        r = channel("mcc", ta, empty, mcc, empty_mcc)
        assert r.score == 0.0 and r.n_pairs_used == 0

    def test_shuffle_invariance(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        perm = rng.permutation(len(tb))
        tb_shuffled = MinutiaeTemplate("b", tuple(tb.minutiae[i] for i in perm))
        mcc_b_shuffled = build_mcc_set(tb_shuffled)
        base = channel("mcc", ta, tb, mcc_a, mcc_b)
        shuffled = channel("mcc", ta, tb_shuffled, mcc_a, mcc_b_shuffled)
        assert shuffled.score == pytest.approx(base.score, abs=1e-9)

    def test_pairs_capped_at_eight(self, rng):
        ta, tb, mcc_a, mcc_b, *_ = descriptor_pair(rng, n=20)
        r = channel("emb", ta, tb, mcc_a, mcc_b)
        assert r.n_pairs_used <= 8


class TestFeatureFusion:
    def test_identical_channels_idempotent(self, rng):
        # both channels see the same descriptors and the gate never fires
        # (all directions nearly equal), so the pair sets are identical and
        # the union is idempotent
        ta = random_template(rng, n=10, extent=250.0, tid="a")
        tb = random_template(rng, n=10, extent=250.0, tid="b")
        flatten = lambda t, tid: MinutiaeTemplate(
            tid, tuple(type(m)(m.x, m.y, 0.1) for m in t.minutiae)
        )
        ta, tb = flatten(ta, "a"), flatten(tb, "b")
        mcc_a, mcc_b = build_mcc_set(ta), build_mcc_set(tb)
        fused = channel("feature", ta, tb, mcc_a, mcc_b)
        single = channel("emb", ta, tb, mcc_a, mcc_b)
        assert fused.score == pytest.approx(single.score, abs=1e-12)

    def test_dead_channel_falls_back(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        results = match_all_channels(ta, tb, mcc_a, mcc_b, invalidate(emb_a), emb_b)
        fused, single = results["feature"], results["mcc"]
        assert fused.score == single.score
        assert fused.raw_sum == single.raw_sum

    def test_channel_order_irrelevant(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        ab = match_all_channels(ta, tb, mcc_a, mcc_b, emb_a, emb_b)["feature"]
        # swapping which descriptor plays "mcc" vs "emb" changes gating, so
        # instead verify determinism across repeated runs
        again = match_all_channels(ta, tb, mcc_a, mcc_b, emb_a, emb_b)["feature"]
        assert ab == again

    def test_spoiler_pairs_relax_lower(self, rng):
        # genuine rigid correspondences plus geometrically inconsistent
        # spoilers: after relaxation the genuine pairs dominate
        ta = random_template(rng, n=8, tid="a")
        tb = rotate_template(ta, 0.4, 15.0, -8.0)
        # six genuine pairs (i, i) at 0.8, then the spoilers (6, 7), (7, 6) at 0.9
        rows, cols = np.arange(8), np.array([0, 1, 2, 3, 4, 5, 7, 6])
        gamma = [0.8] * 6 + [0.9] * 2
        params = RelaxationParams()
        rho = compatibilities(
            side_geometry(ta.positions()[rows], ta.thetas()[rows]),
            side_geometry(tb.positions()[cols], tb.thetas()[cols]),
            params,
        )
        rho, gamma = padded(rho, (PAIR_SLOTS, PAIR_SLOTS)), padded(gamma, (PAIR_SLOTS,))
        relaxed = relax_scores(rho, gamma, np.array([8]), params)[0]
        assert relaxed[:6].min() > relaxed[6:8].max()


class TestScoreFusion:
    def test_w1_degenerate_to_mcc(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        cfg = FusionConfig(w1=1.0, w2=0.0)
        results = match_all_channels(ta, tb, mcc_a, mcc_b, emb_a, emb_b, cfg)
        fused, single = results["score"], results["mcc"]
        assert fused.score == pytest.approx(single.score, abs=1e-12)

    def test_w2_degenerate_to_emb(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        cfg = FusionConfig(w1=0.0, w2=1.0)
        results = match_all_channels(ta, tb, mcc_a, mcc_b, emb_a, emb_b, cfg)
        fused, single = results["score"], results["emb"]
        assert fused.score == pytest.approx(single.score, abs=1e-12)

    def test_entry_arithmetic(self):
        s_mcc = (np.array([[0.8]]), np.array([[False]]))
        s_emb = (np.array([[0.6]]), np.array([[False]]))
        values, _ = fusion._fused_matrix(s_mcc, s_emb, FusionConfig())
        assert values[0, 0] == pytest.approx(0.7)

    def test_gated_entry_contributes_zero(self):
        s_mcc = (np.array([[0.8]]), np.array([[True]]))
        s_emb = (np.array([[0.6]]), np.array([[False]]))
        values, gated = fusion._fused_matrix(s_mcc, s_emb, FusionConfig())
        assert values[0, 0] == pytest.approx(0.3)
        assert not gated[0, 0]
        _, both = fusion._fused_matrix(
            (np.array([[0.8]]), np.array([[True]])),
            (np.array([[0.6]]), np.array([[True]])),
            FusionConfig(),
        )
        assert both[0, 0]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(w1=0.0, w2=0.0)

    @pytest.mark.parametrize("field", ["w1", "w2", "delta_theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            FusionConfig(**{field: value})


class TestMatchAllChannels:
    def test_empty_inputs(self, rng):
        empty = MinutiaeTemplate("e", ())
        d = build_mcc_set(empty)
        out = match_all_channels(empty, empty, d, d, d, d)
        assert set(out) == set(CHANNELS)
        assert all(r.score == 0.0 for r in out.values())



class TestGalleryEngine:
    @staticmethod
    def kernel_calls(rng, monkeypatch, n_gallery):
        """Selection and relaxation kernel calls of one ``identify_all``.

        The names are looked up at call time, so wrappers on the module
        globals see every call the engine makes.
        """
        calls = Counter()
        for name in ("select_pairs", "relax_scores"):

            def counted(*args, _fn=getattr(fusion, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(fusion, name, counted)
        gallery = Gallery()
        for i in range(n_gallery):
            gallery.enroll(random_template(rng, n=10, extent=250.0, tid=f"g{i:02d}"))
        query = gallery.prepare_query(random_template(rng, n=10, extent=250.0, tid="q"))
        out = identify_all(gallery, query)
        assert all(len(r.candidates) == n_gallery for r in out.values())
        monkeypatch.undo()
        return calls

    def test_kernel_calls_per_block_not_per_entry(self, rng, monkeypatch):
        one_block = {"select_pairs": 1, "relax_scores": 1}
        assert self.kernel_calls(rng, monkeypatch, 3) == one_block
        assert self.kernel_calls(rng, monkeypatch, fusion._BLOCK) == one_block
        blocks = -(-30 // fusion._BLOCK)
        assert self.kernel_calls(rng, monkeypatch, 30) == {k: blocks for k in one_block}

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        # every gallery spans at least two blocks
        sizes=st.lists(
            st.integers(0, 14), min_size=fusion._BLOCK - 1, max_size=2 * fusion._BLOCK + 4
        ),
        query_size=st.integers(0, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_equals_single_and_ignores_enrollment_order(self, sizes, query_size, seed):
        # dense templates, so that most descriptors are valid and most
        # entries relax several pairs
        rng = np.random.default_rng(seed)
        templates = [
            random_template(rng, n=n, extent=120.0, tid=f"g{i:02d}", min_spacing=6.0)
            for i, n in enumerate([0, 1, *sizes])
        ]
        tq = random_template(rng, n=query_size, extent=120.0, tid="q", min_spacing=6.0)

        def identify(order):
            gallery = Gallery()
            for i in order:
                gallery.enroll(templates[i])
            return identify_all(gallery, gallery.prepare_query(tq))

        base = identify(range(len(templates)))
        shuffled = identify(rng.permutation(len(templates)))
        for ch in CHANNELS:
            assert base[ch].candidates == shuffled[ch].candidates

        raw_q = (build_mcc_set(tq), build_synthetic_embeddings(tq))
        for t in templates:
            single = match_all_channels(
                tq, t, raw_q[0], build_mcc_set(t), raw_q[1], build_synthetic_embeddings(t)
            )
            for ch in CHANNELS:
                assert dict(base[ch].candidates)[t.id] == single[ch].score


def ranked(ranks):
    return [IdentificationResult(q, (), r) for q, r in ranks.items()]


class TestFuseRanks:
    @pytest.mark.parametrize("a,b,expected", [(3, 1, 1), (2, 2, 2), (1, 5, 1)])
    def test_min(self, a, b, expected):
        fused = fuse_ranks(ranked({"q": a}), ranked({"q": b}))
        assert [(r.query_id, r.rank_of_mate) for r in fused] == [("q", expected)]

    def test_missing_query(self):
        with pytest.raises(ValueError, match="q2"):
            fuse_ranks(ranked({"q1": 1}), ranked({"q2": 1}))

    def test_dominance(self, rng):
        ranks_a = {f"q{i}": int(rng.integers(1, 20)) for i in range(30)}
        ranks_b = {f"q{i}": int(rng.integers(1, 20)) for i in range(30)}
        fused = {r.query_id: r.rank_of_mate for r in fuse_ranks(ranked(ranks_a), ranked(ranks_b))}
        assert set(fused) == set(ranks_a)
        for q in fused:
            assert fused[q] <= ranks_a[q] and fused[q] <= ranks_b[q]

    def test_sorted_by_query_id(self):
        fused = fuse_ranks(ranked({"q2": 1, "q1": 3}), ranked({"q1": 2, "q2": None}))
        assert [(r.query_id, r.rank_of_mate) for r in fused] == [("q1", 2), ("q2", 1)]
