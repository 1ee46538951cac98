import os
import signal
import threading
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fpfusion.fusion as fusion
import fpfusion.mcc as mcc
from conftest import (
    far_apart_pair,
    live_rows,
    match_pair,
    padded,
    random_template,
    rotate_template,
)
from fpfusion.descriptors import DescriptorSet
from fpfusion.embedding import build_synthetic_embeddings
from fpfusion.evaluation import Gallery, IdentificationResult, fuse_ranks, identify_all
from fpfusion.fusion import CHANNELS, FusionConfig
from fpfusion.mcc import build_mcc_set
from fpfusion.relaxation import (
    PAIR_SLOTS,
    RELAX_ITERATIONS,
    RELAX_WEIGHT,
    compatibilities,
    relax_scores,
    side_geometry,
    top_scores,
)
from fpfusion.synthetic import PerturbConfig, SynthConfig, generate_gallery, perturb_to_latent
from fpfusion.templates import MinutiaeTemplate


def descriptor_pair(rng, n=10, tid_a="a", tid_b="b"):
    ta = random_template(rng, n=n, extent=250.0, tid=tid_a)
    tb = random_template(rng, n=n, extent=250.0, tid=tid_b)
    return ta, tb, build_mcc_set(ta), build_mcc_set(tb), build_synthetic_embeddings(
        ta
    ), build_synthetic_embeddings(tb)


def invalidate(d):
    return type(d)(d.vectors, np.zeros(len(d), dtype=bool))


def channel(name, ta, tb, da, db, cfg=None):
    """One channel's result, with the cylinder sets ``da``/``db`` of ``ta``/``tb``
    as the embeddings too, so both descriptor slots hold them."""
    return match_pair(ta, tb, da, db, cfg)[name]


class TestMatchSingle:
    def test_self_match_equals_relaxation_oracle(self, rng):
        ta = random_template(rng, n=10, extent=200.0)
        mcc = build_mcc_set(ta)
        result = channel("mcc", ta, ta, mcc, mcc)
        # independent expectation: self-pairs all score 1, relaxed by Eq-style
        # recurrence with the self-geometry compatibility matrix
        side = side_geometry(ta.positions(), ta.thetas())
        n = np.array([10])
        rho = compatibilities(side, side)
        rho = live_rows(padded(rho, (PAIR_SLOTS, PAIR_SLOTS)), n)
        gamma = padded(np.ones(10), (PAIR_SLOTS,))
        relaxed = relax_scores(rho, gamma, n, RELAX_WEIGHT, RELAX_ITERATIONS)
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

    def test_far_apart_minutiae_score_without_warning(self):
        # every compatibility across the 3,000 px move is the exact 0 of an
        # overflowed exponent; RuntimeWarning is an error under pytest
        result = match_pair(*far_apart_pair())
        for ch in CHANNELS:
            assert result[ch].n_pairs_used == 6
            assert result[ch].score == pytest.approx(0.116732, abs=5e-7)
            assert result[ch].raw_sum == pytest.approx(0.700393, abs=5e-7)

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
        results = match_pair(ta, tb, invalidate(emb_a), emb_b)
        fused, single = results["feature"], results["mcc"]
        assert fused.score == single.score
        assert fused.raw_sum == single.raw_sum

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        na=st.integers(0, 30),
        nb=st.integers(0, 30),
        dead=st.sampled_from(["mcc", "embedding"]),
        sides=st.sampled_from(["a", "b", "ab"]),
    )
    def test_dead_channel_falls_back_exactly(self, seed, na, nb, dead, sides):
        # with one channel's descriptors invalid on a side, that channel
        # selects nothing and the union is the live channel's selection,
        # relaxed in the same order: score and raw sum are equal bit for bit
        rng = np.random.default_rng(seed)
        ta = random_template(rng, n=na, extent=250.0, tid="a")
        tb = random_template(rng, n=nb, extent=250.0, tid="b")
        g = Gallery()
        query, entry = g.prepare_query(ta), g.prepare_query(tb)
        if "a" in sides:
            query = replace(query, **{dead: invalidate(getattr(query, dead))})
        if "b" in sides:
            entry = replace(entry, **{dead: invalidate(getattr(entry, dead))})
        scores, raw, _ = fusion.match_gallery(query, [entry])
        live = CHANNELS.index("emb" if dead == "mcc" else "mcc")
        feature = CHANNELS.index("feature")
        assert scores[feature, 0] == scores[live, 0]
        assert raw[feature, 0] == raw[live, 0]

    def test_channel_order_irrelevant(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        ab = match_pair(ta, tb, emb_a, emb_b)["feature"]
        # swapping which descriptor plays "mcc" vs "emb" changes gating, so
        # instead verify determinism across repeated runs
        again = match_pair(ta, tb, emb_a, emb_b)["feature"]
        assert ab == again

    def test_spoiler_pairs_relax_lower(self, rng):
        # genuine rigid correspondences plus geometrically inconsistent
        # spoilers: after relaxation the genuine pairs dominate
        ta = random_template(rng, n=8, tid="a")
        tb = rotate_template(ta, 0.4, 15.0, -8.0)
        # six genuine pairs (i, i) at 0.8, then the spoilers (6, 7), (7, 6) at 0.9
        rows, cols = np.arange(8), np.array([0, 1, 2, 3, 4, 5, 7, 6])
        gamma = [0.8] * 6 + [0.9] * 2
        rho = compatibilities(
            side_geometry(ta.positions()[rows], ta.thetas()[rows]),
            side_geometry(tb.positions()[cols], tb.thetas()[cols]),
        )
        n = np.array([8])
        rho = live_rows(padded(rho, (PAIR_SLOTS, PAIR_SLOTS)), n)
        gamma = padded(gamma, (PAIR_SLOTS,))
        relaxed = relax_scores(rho, gamma, n, RELAX_WEIGHT, RELAX_ITERATIONS)[0]
        assert relaxed[:6].min() > relaxed[6:8].max()


class TestScoreFusion:
    def test_w1_degenerate_to_mcc(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        cfg = FusionConfig(w1=1.0, w2=0.0)
        results = match_pair(ta, tb, emb_a, emb_b, cfg)
        fused, single = results["score"], results["mcc"]
        assert fused.score == pytest.approx(single.score, abs=1e-12)

    def test_w2_degenerate_to_emb(self, rng):
        ta, tb, mcc_a, mcc_b, emb_a, emb_b = descriptor_pair(rng)
        cfg = FusionConfig(w1=0.0, w2=1.0)
        results = match_pair(ta, tb, emb_a, emb_b, cfg)
        fused, single = results["score"], results["emb"]
        assert fused.score == pytest.approx(single.score, abs=1e-12)

    @staticmethod
    def fused(values_mcc, gated_mcc, values_emb, gated_emb):
        """``_fused_matrix`` on a (3, 1, 1) work stack: the fused (values, gated)."""
        work = np.array([[[values_mcc]], [[values_emb]], [[np.nan]]])
        gates = np.array([[gated_mcc]]), np.array([[gated_emb]])
        gated = fusion._fused_matrix(work, *gates, FusionConfig())
        return work[2], gated

    def test_entry_arithmetic(self):
        values, _ = self.fused(0.8, False, 0.6, False)
        assert values[0, 0] == pytest.approx(0.7)

    def test_gated_entry_contributes_zero(self):
        values, gated = self.fused(0.8, True, 0.6, False)
        assert values[0, 0] == pytest.approx(0.3)
        assert not gated[0, 0]
        _, both = self.fused(0.8, True, 0.6, True)
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
        out = match_pair(empty, empty, d, d)
        assert set(out) == set(CHANNELS)
        assert all(r.score == 0.0 for r in out.values())



class TestDimensionCheck:
    @pytest.mark.parametrize("field,ch,dim", [("mcc", "mcc", mcc.DIM), ("embedding", "emb", 256)])
    def test_mismatched_entry_is_rejected_before_any_similarity(
        self, rng, monkeypatch, field, ch, dim
    ):
        g = Gallery()
        query = g.prepare_query(random_template(rng, n=8, tid="q"))
        # the mismatched entry is the first of the second block
        first_block = fusion._entries_per_block(8, 8)
        entries = [
            g.prepare_query(random_template(rng, n=8, tid=f"g{i:03d}"))
            for i in range(first_block + 1)
        ]
        d = getattr(entries[-1], field)
        entries[-1] = replace(entries[-1], **{field: DescriptorSet(d.vectors[:, :100], d.valid)})

        def no_similarity(*args, **kwargs):
            raise AssertionError("similarity computed before the dimension check")

        monkeypatch.setattr(fusion, "block_cosines", no_similarity)
        message = f"{ch} descriptors of gallery entry 'g{first_block:03d}' have dimension 100, "
        with pytest.raises(ValueError, match=f"^{message}the query's have {dim}$"):
            fusion.match_gallery(query, entries)

    def test_both_dimensions_differ_names_mcc(self, rng):
        g = Gallery()
        query, entry = (g.prepare_query(random_template(rng, n=8, tid=t)) for t in "qg")
        entry = replace(
            entry,
            mcc=DescriptorSet(entry.mcc.vectors[:, :100], entry.mcc.valid),
            embedding=DescriptorSet(entry.embedding.vectors[:, :50], entry.embedding.valid),
        )
        message = "mcc descriptors of gallery entry 'g' have dimension 100, the query's have "
        with pytest.raises(ValueError, match=f"^{message}{mcc.DIM}$"):
            fusion.match_gallery(query, [entry])


class TestGalleryEngine:
    @staticmethod
    def kernel_calls(rng, monkeypatch, n_gallery):
        """Selection and relaxation kernel calls of one ``identify_all``.

        The names are looked up at call time, so wrappers on the module
        globals see every call the engine makes.
        """
        calls = Counter()
        lock = threading.Lock()  # both scoring lanes count
        for name in ("select_pairs", "relax_scores"):

            def counted(*args, _fn=getattr(fusion, name), _name=name, **kwargs):
                with lock:
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
        per_block = fusion._entries_per_block(10, 10)
        assert per_block > 1
        assert self.kernel_calls(rng, monkeypatch, 3) == one_block
        assert self.kernel_calls(rng, monkeypatch, per_block) == one_block
        two_blocks = {k: 2 for k in one_block}
        assert self.kernel_calls(rng, monkeypatch, per_block + 1) == two_blocks

    # At most this many entries per block whatever the template sizes: each
    # entry costs at least its relaxation stack.
    SMALL_BLOCK = 16
    SMALL_BUDGET = SMALL_BLOCK * 4 * PAIR_SLOTS**2

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        # under SMALL_BUDGET, every gallery spans at least two blocks
        sizes=st.lists(
            st.integers(0, 14), min_size=SMALL_BLOCK - 1, max_size=2 * SMALL_BLOCK + 4
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

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fusion, "_BUDGET", self.SMALL_BUDGET)
            assert fusion._entries_per_block(0, 0) == self.SMALL_BLOCK
            base = identify(range(len(templates)))
            shuffled = identify(rng.permutation(len(templates)))
        for ch in CHANNELS:
            assert base[ch].candidates == shuffled[ch].candidates

        for t in templates:
            single = match_pair(tq, t)
            for ch in CHANNELS:
                assert dict(base[ch].candidates)[t.id] == single[ch].score


@st.composite
def block_selections(draw):
    """(3, B, R) selections of a block as ``select_pairs`` makes them: within
    a selection distinct rows and distinct columns, 0 to R live pairs, and
    pair (0, 0) at score 7 past the count. Small matrices make selections
    share pairs, each at its own score."""
    size, r, width = (draw(st.integers(1, n)) for n in (4, 4, 5))
    depth = min(r, width)
    rows, cols = np.zeros((2, 3, size, depth), dtype=np.intp)
    scores = np.full((3, size, depth), 7.0)
    count = np.zeros((3, size), dtype=np.intp)
    for c in range(3):
        for b in range(size):
            n = count[c, b] = draw(st.integers(0, depth))
            rows[c, b, :n] = draw(st.permutations(range(r)))[:n]
            cols[c, b, :n] = draw(st.permutations(range(width)))[:n]
            scores[c, b, :n] = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return rows, cols, scores, count, (r, width)


class TestUnionPairs:
    @settings(max_examples=200, deadline=None)
    @given(block_selections())
    def test_matches_set_oracle(self, selection):
        rows, cols, scores, count, shape = selection
        u_rows, u_cols, held = fusion._union_pairs(rows, cols, scores, count, shape)
        size = count.shape[1]
        # the engine counts a list's finite slots, so padding must be -inf
        n = np.count_nonzero((held > -np.inf).any(axis=0), axis=1)
        chosen = [
            [
                {(rows[c, b, p], cols[c, b, p]): scores[c, b, p] for p in range(count[c, b])}
                for b in range(size)
            ]
            for c in range(3)
        ]
        for b in range(size):
            union = sorted(set().union(*(chosen[c][b] for c in range(3))))
            m = len(union)
            assert n[b] == m
            # padding gathers pair (0, 0), which every entry has
            assert np.array_equal(u_rows[b, m:], np.zeros(u_rows.shape[1] - m))
            assert np.array_equal(u_cols[b, m:], np.zeros(u_cols.shape[1] - m))
            assert np.array_equal(u_rows[b, :m], [row for row, _ in union])
            assert np.array_equal(u_cols[b, :m], [col for _, col in union])
            for c in range(3):
                expected = [chosen[c][b].get(pair, -np.inf) for pair in union]
                assert np.array_equal(held[c, b, :m], expected)
        assert u_rows.shape == u_cols.shape == (size, max(1, max(n)))
        assert held.shape == (3, *u_rows.shape)


STYLES = {
    # (gallery, query perturbation) as the latent-1n and dense-1n benchmarks
    # make them, with fewer fingers
    "latent": (SynthConfig(seed=3, n_fingers=24), PerturbConfig()),
    "dense": (
        SynthConfig(seed=3, n_fingers=10, min_minutiae=80, max_minutiae=120, extent=(700.0, 700.0)),
        PerturbConfig(
            keep_min=0.85, keep_max=0.95, crop_radius_min=600.0, crop_radius_max=700.0,
            spurious_mean=5.0,
        ),
    ),
}


def styled_gallery(style, n_queries):
    """Entries of a ``STYLES`` gallery and queries perturbed from its fingers."""
    synth, perturb = STYLES[style]
    fingers = generate_gallery(synth)
    g = Gallery()
    for t in fingers:
        g.enroll(t)
    queries = [
        g.prepare_query(perturb_to_latent(fingers[i], np.random.default_rng([i, 1]), perturb)[0])
        for i in range(n_queries)
    ]
    return list(g.entries()), queries


class TestBlockBudget:
    @pytest.mark.parametrize("style", sorted(STYLES))
    def test_block_size_moves_no_output(self, monkeypatch, style):
        entries, queries = styled_gallery(style, 3)
        width = max(len(e.template) for e in entries)
        for q in queries:
            assert fusion._entries_per_block(len(q.template), width) > 1
            default = fusion.match_gallery(q, entries)
            monkeypatch.setattr(fusion, "_BUDGET", 1)  # one entry per block
            single = fusion.match_gallery(q, entries)
            monkeypatch.undo()
            for a, b in zip(default, single):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize(
        "style,budget,fingers",
        [
            pytest.param("dense", None, None, id="dense-None"),  # the default
            # one entry per block, each over budget
            pytest.param("dense", 8 * PAIR_SLOTS**2, None, id="dense-4608"),
            # as above on 9 fingers: an odd count, capped at the entries
            pytest.param("dense", 8 * PAIR_SLOTS**2, 9, id="dense-4608-9"),
            # 4 entries per block, so 3 passes needed
            pytest.param("dense", 5 << 15, None, id="dense-163840"),
            # latent entries cost about as much in relaxation as in selection
            pytest.param("latent", 1 << 15, None, id="latent-32768"),
            # 9 entries per block, so 3 passes needed
            pytest.param("latent", 1 << 16, None, id="latent-65536"),
        ],
    )
    def test_blocks_stay_within_budget(self, monkeypatch, style, budget, fingers):
        """The padded selection and relaxation stacks of a block hold at most
        ``_BUDGET`` elements, unless the block holds a single entry."""
        entries, (query,) = styled_gallery(style, 1)
        entries = entries[:fingers]
        if budget is not None:
            monkeypatch.setattr(fusion, "_BUDGET", budget)
        # per scoring lane, as the lanes interleave their kernel calls
        shapes = defaultdict(lambda: {"select_pairs": [], "relax_scores": []})

        def recorded_select(stack, *args, _fn=fusion.select_pairs):
            shapes[threading.get_ident()]["select_pairs"].append(stack.shape)
            return _fn(stack, *args)

        def recorded_relax(rho, gamma, n, *args, _fn=fusion.relax_scores):
            # the live rows of the block's (K, P) lists, as (K, P, live rows)
            assert rho.shape == (n.sum(), gamma.shape[1]) and len(n) == len(gamma)
            shapes[threading.get_ident()]["relax_scores"].append((*gamma.shape, len(rho)))
            return _fn(rho, gamma, n, *args)

        monkeypatch.setattr(fusion, "select_pairs", recorded_select)
        monkeypatch.setattr(fusion, "relax_scores", recorded_relax)
        fusion.match_gallery(query, entries)
        sizes = []
        for lane in shapes.values():
            assert len(lane["select_pairs"]) == len(lane["relax_scores"])
            for (k_select, r, width), (k_relax, p, _) in zip(*lane.values()):
                size = k_select // 3
                assert k_select == 3 * size and k_relax == 4 * size and p == PAIR_SLOTS
                assert size == 1 or 3 * size * r * width + 4 * size * p * p <= fusion._BUDGET
                sizes.append(size)
        assert len(sizes) > 1
        assert sum(sizes) == len(entries)
        # as many passes as the budget needs, rounded up to an even count
        # unless that exceeds the entries, evened out
        assert max(sizes) - min(sizes) <= 1
        step = fusion._entries_per_block(len(query.template), max(len(e.template) for e in entries))
        needed = -(-len(entries) // step)
        assert len(sizes) == min(needed + needed % 2, len(entries))


class TestLanes:
    """Blocks 0, 2, ... of a call run on the calling thread and blocks 1, 3,
    ... on one helper thread."""

    @staticmethod
    def lanes_of(monkeypatch):
        """Record the thread and numpy divide mode of every block, by its
        first entry's id."""
        seen = {}

        def recorded(query, side_a, block, cfg, _fn=fusion._match_block):
            seen[block[0].template.id] = (threading.get_ident(), np.geterr()["divide"])
            return _fn(query, side_a, block, cfg)

        monkeypatch.setattr(fusion, "_match_block", recorded)
        return seen

    @staticmethod
    def assert_one_entry_calls_equal(query, entries, lanes):
        """``lanes``, the outputs of one call on ``entries``, are the bytes
        of the one-entry calls, concatenated."""
        single = [fusion.match_gallery(query, [e]) for e in entries]
        for k, a in enumerate(lanes):
            b = np.concatenate([s[k] for s in single], axis=1)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("style", sorted(STYLES))
    def test_lanes_equal_one_entry_calls(self, monkeypatch, style):
        entries, queries = styled_gallery(style, 2)
        monkeypatch.setattr(fusion, "_BUDGET", fusion._BUDGET // 8)
        seen = self.lanes_of(monkeypatch)
        for q in queries:
            seen.clear()
            lanes = fusion.match_gallery(q, entries)
            assert len(seen) > 2
            assert len({ident for ident, _ in seen.values()}) == 2
            seen.clear()
            self.assert_one_entry_calls_equal(q, entries, lanes)
            assert {ident for ident, _ in seen.values()} == {threading.get_ident()}

    def test_odd_pass_count_runs_as_even_blocks(self, monkeypatch):
        entries, (query,) = styled_gallery("latent", 1)
        r, width = len(query.template), max(len(e.template) for e in entries)
        monkeypatch.setattr(fusion, "_BUDGET", 9 * (3 * r * width + 4 * PAIR_SLOTS**2))
        assert -(-len(entries) // fusion._entries_per_block(r, width)) == 3
        seen = self.lanes_of(monkeypatch)
        lanes = fusion.match_gallery(query, entries)
        assert len(seen) == 4
        threads = Counter(ident for ident, _ in seen.values())
        assert len(threads) == 2 and set(threads.values()) == {2}
        assert threads[threading.get_ident()] == 2
        self.assert_one_entry_calls_equal(query, entries, lanes)

    def test_one_pass_call_stays_on_caller(self, monkeypatch):
        entries, (query,) = styled_gallery("latent", 1)
        width = max(len(e.template) for e in entries)
        assert fusion._entries_per_block(len(query.template), width) >= len(entries) > 1
        seen = self.lanes_of(monkeypatch)
        fusion.match_gallery(query, entries)
        assert [ident for ident, _ in seen.values()] == [threading.get_ident()]

    def test_helper_lane_sees_callers_error_state(self, monkeypatch):
        entries, (query,) = styled_gallery("latent", 1)
        monkeypatch.setattr(fusion, "_BUDGET", fusion._BUDGET // 8)
        seen = self.lanes_of(monkeypatch)
        with np.errstate(divide="raise"):
            fusion.match_gallery(query, entries)
        assert len({ident for ident, _ in seen.values()}) == 2
        assert {mode for _, mode in seen.values()} == {"raise"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_forked_child_scores_on_two_lanes(self, monkeypatch):
        entries, (query,) = styled_gallery("latent", 1)
        monkeypatch.setattr(fusion, "_BUDGET", fusion._BUDGET // 8)
        expected = b"".join(a.tobytes() for a in fusion.match_gallery(query, entries))
        pid = os.fork()  # after the helper thread has started
        if pid == 0:
            status = 1
            try:
                signal.alarm(60)  # a child whose helper never runs is killed
                got = b"".join(a.tobytes() for a in fusion.match_gallery(query, entries))
                status = 0 if got == expected else 3
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status

    @pytest.mark.parametrize("lane", ["caller", "helper"])
    def test_block_error_propagates_and_next_call_works(self, monkeypatch, lane):
        entries, (query,) = styled_gallery("latent", 1)
        monkeypatch.setattr(fusion, "_BUDGET", fusion._BUDGET // 8)
        expected = fusion.match_gallery(query, entries)
        caller = threading.get_ident()
        error = RuntimeError("block failed")
        running = set()

        def failing(query, side_a, block, cfg, _fn=fusion._match_block):
            on_caller = threading.get_ident() == caller
            if on_caller == (lane == "caller") and block[0] is not entries[0]:
                raise error
            running.add(id(block))
            time.sleep(0.05)  # a helper block still runs when the caller fails
            out = _fn(query, side_a, block, cfg)
            running.remove(id(block))
            return out

        monkeypatch.setattr(fusion, "_match_block", failing)
        with pytest.raises(RuntimeError) as raised:
            fusion.match_gallery(query, entries)
        assert raised.value is error
        assert not running  # no block of the failed call outlives it
        monkeypatch.undo()
        again = fusion.match_gallery(query, entries)
        for a, b in zip(expected, again):
            assert a.tobytes() == b.tobytes()


class TestRigidMotion:
    """What a rigid motion leaves unchanged. The angle gate compares absolute
    directions, so rotating one template alone may move ``mcc``, ``feature``
    and ``score``; only ``emb``, whose similarities are ungated, stays put."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        na=st.integers(0, 30),
        nb=st.integers(0, 30),
        moved=st.sampled_from(["a", "b"]),
        alpha=st.floats(-np.pi, np.pi),
        shift=st.tuples(st.floats(-300, 300), st.floats(-300, 300)),
        center=st.tuples(st.floats(-300, 300), st.floats(-300, 300)),
    )
    def test_scores_under_rigid_motion(self, seed, na, nb, moved, alpha, shift, center):
        rng = np.random.default_rng(seed)
        ta, tb = random_template(rng, n=na, tid="a"), random_template(rng, n=nb, tid="b")
        base = match_pair(ta, tb)

        def moved_one(t_new):
            return match_pair(t_new, tb) if moved == "a" else match_pair(ta, t_new)

        def close(other, channels):
            return all(abs(other[ch].score - base[ch].score) <= 1e-9 for ch in channels)

        t = ta if moved == "a" else tb
        assert close(moved_one(rotate_template(t, 0.0, *shift)), CHANNELS)
        both = [rotate_template(x, alpha, *shift, center=center) for x in (ta, tb)]
        assert close(match_pair(*both), CHANNELS)
        assert close(moved_one(rotate_template(t, alpha, *shift, center=center)), ["emb"])


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
