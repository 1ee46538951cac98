import math

import numpy as np
import pytest

from conftest import padded
from fpfusion.descriptors import DescriptorSet
from fpfusion.fusion import GalleryEntry
from fpfusion.pairing import (
    angle_gate,
    block_cosines,
    compute_n_p,
    compute_n_r,
    cosine_similarity,
    select_pairs,
    unit_rows,
)
from fpfusion.templates import Minutia, MinutiaeTemplate


def lsa_oracle(values, gated, n_r):
    """Brute-force greedy: re-scan the full matrix each step."""
    rows, cols = values.shape
    used_r, used_c = set(), set()
    picked = []
    for _ in range(n_r):
        best = None
        for r in range(rows):
            for c in range(cols):
                if gated[r, c] or r in used_r or c in used_c:
                    continue
                if best is None or values[r, c] > best[2]:
                    best = (r, c, values[r, c])
        if best is None:
            break
        picked.append(best)
        used_r.add(best[0])
        used_c.add(best[1])
    picked.sort(key=lambda p: (-p[2], p[0], p[1]))
    return picked


def select(instances):
    """One ``select_pairs`` pass over (values, gated, n_r) instances, each
    padded with -inf into one work stack; returns each one's picks as
    (row, col, score) lists."""
    shape = np.max([np.shape(values) for values, _, _ in instances], axis=0)
    work = np.concatenate(
        [padded(np.where(gated, -np.inf, values), shape, -np.inf) for values, gated, _ in instances]
    )
    rows, cols, scores, count = select_pairs(work, np.array([n_r for *_, n_r in instances]))
    return [
        [(int(rows[k, i]), int(cols[k, i]), float(scores[k, i])) for i in range(count[k])]
        for k in range(len(instances))
    ]


class TestCosine:
    def test_identity(self, rng):
        v = rng.normal(size=16)
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_and_opposite(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)

    def test_zero_vector_error(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 0], [1, 0, 0])


class TestSimScore:
    """Angle-gated similarity: ``block_cosines`` on unit rows, then ``angle_gate``."""

    def _sets(self):
        a = DescriptorSet("a", np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2, bool))
        b = DescriptorSet("b", np.array([[1.0, 0.0], [1.0, 1.0]]), np.ones(2, bool))
        return unit_rows(a), unit_rows(b)

    @staticmethod
    def cosines(q, block):
        """Cosines and gate of ``q`` against a block of descriptor sets."""
        counts = np.array([len(g) for g in block])
        slot = np.arange(counts.max()) < counts[:, None]
        values = np.zeros((len(block), len(q), slot.shape[1]))
        return values, block_cosines(q, block, slot, values)

    def test_no_templates_no_gate(self):
        # the embedding channel: valid rows and no angle gate
        a, b = self._sets()
        values, gated = self.cosines(a, [b])
        assert not gated.any()
        assert values[0, 0, 0] == pytest.approx(1.0)

    def test_angle_gate(self):
        a, b = self._sets()
        ta = MinutiaeTemplate("a", (Minutia(0, 0, 0.0), Minutia(1, 0, 0.0)))
        tb = MinutiaeTemplate("b", (Minutia(0, 0, math.pi), Minutia(1, 0, 0.1)))
        _, gated = self.cosines(a, [b])
        gated = gated[0] | angle_gate(ta.thetas(), tb.thetas()[None], math.pi / 4)[0]
        assert gated[0, 0] and gated[1, 0]
        assert not gated[0, 1] and not gated[1, 1]

    def test_identical_descriptor_gives_one(self):
        a, _ = self._sets()
        values, _ = self.cosines(a, [a])
        assert np.allclose(np.diag(values[0]), 1.0)

    def test_invalid_descriptors_gated(self):
        a = DescriptorSet("a", np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([True, False]))
        _, gated = self.cosines(a, [a])
        assert not gated[0, 0, 0]
        assert gated[0, 1, :].all() and gated[0, :, 1].all()

    def test_padding_gated(self):
        a, b = self._sets()
        short = DescriptorSet("s", b.vectors[:1], b.valid[:1])
        values, gated = self.cosines(a, [b, short])
        assert not gated[0].any()
        assert not gated[1, :, 0].any() and gated[1, :, 1].all()
        assert np.array_equal(values[1, :, :1], values[0, :, :1])

    def test_count_mismatch(self):
        a, b = self._sets()
        ta = MinutiaeTemplate("a", (Minutia(0, 0, 0.0),))
        with pytest.raises(ValueError):
            GalleryEntry(ta, a, b)

    def test_gate_monotonicity(self, rng):
        # the descriptors only advance rng, so the directions stay the seeded ones
        a = DescriptorSet("a", rng.normal(size=(6, 4)), np.ones(6, bool))
        b = DescriptorSet("b", rng.normal(size=(5, 4)), np.ones(5, bool))
        ta = MinutiaeTemplate(
            "a", tuple(Minutia(i, 0, float(rng.uniform(0, 2 * math.pi))) for i in range(6))
        )
        tb = MinutiaeTemplate(
            "b", tuple(Minutia(i, 0, float(rng.uniform(0, 2 * math.pi))) for i in range(5))
        )
        wide = angle_gate(ta.thetas(), tb.thetas()[None], 2.0)
        narrow = angle_gate(ta.thetas(), tb.thetas()[None], 0.5)
        assert (narrow | ~wide | wide).all()
        assert (wide <= narrow).all()


class TestLsaSelect:
    """Greedy selection: ``select_pairs`` on padded work stacks; a gate of
    False gates nothing."""

    def test_simple(self):
        [pairs] = select([([[0.9, 0.1], [0.2, 0.8]], False, 2)])
        assert pairs == [(0, 0, 0.9), (1, 1, 0.8)]

    def test_single(self):
        assert select([([[0.5]], False, 1)]) == [[(0, 0, 0.5)]]

    def test_greedy_not_optimal(self):
        # optimal assignment would pick (0,1)+(1,0) = 1.65; greedy takes (0,0) first
        [pairs] = select([([[0.9, 0.8], [0.85, 0.1]], False, 2)])
        assert [(r, c) for r, c, _ in pairs] == [(0, 0), (1, 1)]
        assert pairs[1][2] == pytest.approx(0.1)

    def test_fewer_than_requested(self):
        gated = np.array([[False, True], [True, True]])
        [pairs] = select([([[0.5, 0.9], [0.9, 0.9]], gated, 2)])
        assert len(pairs) == 1

    def test_negative_scores_selectable(self):
        [pairs] = select([([[-0.5]], False, 1)])
        assert len(pairs) == 1
        assert pairs[0][2] == pytest.approx(-0.5)

    def test_zero_n_r(self):
        assert select([([[0.5]], False, 0)]) == [[]]

    def test_no_row_or_col_reuse(self, rng):
        instances = [(rng.uniform(-1, 1, size=(7, 5)), False, 12) for _ in range(50)]
        for pairs in select(instances):
            rows = [r for r, _, _ in pairs]
            cols = [c for _, c, _ in pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)

    def test_matches_oracle(self, rng):
        instances = []
        for _ in range(300):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            values = rng.uniform(-1, 1, size=(r, c))
            gated = rng.uniform(size=(r, c)) < 0.2
            n_r = int(rng.integers(0, 13))
            instances.append((values, gated, n_r))
        for got, instance in zip(select(instances), instances):
            assert got == lsa_oracle(*instance)

    def test_tie_break(self):
        [pairs] = select([([[0.5, 0.5], [0.5, 0.5]], False, 2)])
        assert [(r, c) for r, c, _ in pairs] == [(0, 0), (1, 1)]


@pytest.mark.parametrize(
    "fn,a,b,expected",
    [
        (compute_n_r, 5, 20, 5),
        (compute_n_r, 30, 25, 12),
        (compute_n_r, 0, 7, 0),
        (compute_n_p, 5, 20, 5),
        (compute_n_p, 30, 25, 8),
        (compute_n_p, 0, 7, 0),
    ],
)
def test_pair_counts(fn, a, b, expected):
    assert fn(a, b) == expected
