import math

import numpy as np
import pytest

from conftest import padded, random_template, rotate_template
from fpfusion.relaxation import (
    PAIR_SLOTS,
    RelaxationParams,
    compatibilities,
    pair_compatibility,
    relax_scores,
    side_geometry,
    top_scores,
)
from fpfusion.templates import Minutia


def relax_oracle(gamma0, rho, w, iterations):
    """Straight-line reference of the relaxation recurrence."""
    n = len(gamma0)
    gamma = list(gamma0)
    for _ in range(iterations):
        new = []
        for t in range(n):
            acc = sum(rho[t][k] * gamma[k] for k in range(n) if k != t)
            new.append(w * gamma[t] + (1 - w) * acc / (n - 1))
        gamma = new
    return gamma


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -100.0])
def test_distance_scale_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="distance_scale"):
        RelaxationParams(distance_scale=value)


class TestCompatibility:
    def test_identical_geometry_value(self):
        # independent evaluation: prod 1/(1+exp(tau_i*mu_i)) with Table-style params
        params = RelaxationParams()
        expected = 1.0
        for mu, tau in zip(params.mu, params.tau):
            expected *= 1.0 / (1.0 + math.exp(tau * mu))
        assert expected == pytest.approx(0.75392, abs=1e-4)
        m1 = Minutia(0, 0, 0.0)
        m2 = Minutia(10, 5, 0.3)
        # identical geometry on both template sides -> d1=d2=d3=0
        got = pair_compatibility((m1, m1), (m2, m2), params)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_large_distance_discrepancy_saturates(self):
        a_t, a_k = Minutia(0, 0, 0.0), Minutia(0, 0, 0.0)
        b_t, b_k = Minutia(0, 0, 0.0), Minutia(1000.0, 0, 0.0)
        # scaled d1 = 10 with d2 = d3 = 0 via co-located A side
        got = pair_compatibility((a_t, b_t), (a_k, b_k))
        assert got < 1e-10

    def test_distance_and_direction_terms_symmetric(self, rng):
        # with the radial term neutralized (tau3=0 -> constant factor), the
        # remaining spatial and directional discrepancies are symmetric in t,k
        params = RelaxationParams(tau=(-30.0, -9.0, 0.0))
        t = random_template(rng, n=4)
        pair_t = (t.minutiae[0], t.minutiae[1])
        pair_k = (t.minutiae[2], t.minutiae[3])
        assert pair_compatibility(pair_t, pair_k, params) == pytest.approx(
            pair_compatibility(pair_k, pair_t, params), abs=1e-12
        )

    def test_symmetric_when_sides_share_geometry(self, rng):
        # b-side pairs are translated copies of the a-side: every d_i is 0
        # regardless of ordering, so compatibility is symmetric
        t = random_template(rng, n=2)
        shift = lambda m: Minutia(m.x + 40.0, m.y - 25.0, m.theta)
        pair_t = (t.minutiae[0], shift(t.minutiae[0]))
        pair_k = (t.minutiae[1], shift(t.minutiae[1]))
        assert pair_compatibility(pair_t, pair_k) == pytest.approx(
            pair_compatibility(pair_k, pair_t), abs=1e-12
        )

    def test_matrix_matches_scalar(self, rng):
        ta = random_template(rng, n=5, tid="a")
        tb = random_template(rng, n=5, tid="b")
        params = RelaxationParams()
        # the pair list (i, i) for every minutia
        rho = compatibilities(
            side_geometry(ta.positions(), ta.thetas()),
            side_geometry(tb.positions(), tb.thetas()),
            params,
        )
        for t_idx in range(5):
            for k_idx in range(5):
                if t_idx == k_idx:
                    continue
                scalar = pair_compatibility(
                    (ta.minutiae[t_idx], tb.minutiae[t_idx]),
                    (ta.minutiae[k_idx], tb.minutiae[k_idx]),
                    params,
                )
                assert rho[t_idx, k_idx] == pytest.approx(scalar, abs=1e-12)

    def test_range(self, rng):
        ta = random_template(rng, n=8, tid="a")
        tb = random_template(rng, n=8, tid="b")
        rho = compatibilities(
            side_geometry(ta.positions(), ta.thetas()),
            side_geometry(tb.positions(), tb.thetas()),
            RelaxationParams(),
        )
        off = ~np.eye(8, dtype=bool)
        assert ((rho[off] > 0) & (rho[off] < 1)).all()


class TestRelax:
    """``relax_scores`` on one pair list, zero-padded to PAIR_SLOTS."""

    @staticmethod
    def relaxed(rho, gamma, params=None):
        n = len(gamma)
        rho, gamma = padded(rho, (PAIR_SLOTS, PAIR_SLOTS)), padded(gamma, (PAIR_SLOTS,))
        return relax_scores(rho, gamma, np.array([n]), params or RelaxationParams())[0, :n]

    def test_two_pair_hand_example(self):
        # rho = 1 everywhere off-diagonal, gamma0 = (0.8, 0.6), one iteration
        params = RelaxationParams(weight=0.5, iterations=1)
        assert self.relaxed(np.ones((2, 2)), [0.8, 0.6], params) == pytest.approx([0.7, 0.7])

    def test_fixed_point_all_equal(self):
        out = self.relaxed(np.ones((3, 3)), [0.4, 0.4, 0.4])
        assert out == pytest.approx([0.4, 0.4, 0.4])

    def test_zero_rho_geometric_decay(self):
        params = RelaxationParams(weight=0.5, iterations=5)
        out = self.relaxed(np.zeros((2, 2)), [0.8, 0.6], params)
        assert out == pytest.approx([0.8 * 0.5**5, 0.6 * 0.5**5])

    def test_single_pair_bypasses(self):
        assert self.relaxed(np.full((1, 1), 0.3), [0.66])[0] == 0.66

    def test_matches_oracle_and_bounded(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            ta = random_template(rng, n=n, tid="a")
            tb = random_template(rng, n=n, tid="b")
            scores = rng.uniform(0, 1, size=n)
            params = RelaxationParams(weight=float(rng.uniform(0, 1)), iterations=int(rng.integers(1, 7)))
            rho = compatibilities(
                side_geometry(ta.positions(), ta.thetas()),
                side_geometry(tb.positions(), tb.thetas()),
                params,
            )
            expected = relax_oracle(scores, rho, params.weight, params.iterations)
            got = list(self.relaxed(rho, scores, params))
            assert got == pytest.approx(expected, abs=1e-12)
            assert all(0.0 <= g <= 1.0 for g in got)

    def test_order_independence(self, rng):
        n = 6
        ta = random_template(rng, n=n, tid="a")
        tb = random_template(rng, n=n, tid="b")
        scores = np.array(rng.uniform(0, 1, size=n))
        params = RelaxationParams()

        def relaxed_by_pair(order):
            rho = compatibilities(
                side_geometry(ta.positions()[order], ta.thetas()[order]),
                side_geometry(tb.positions()[order], tb.thetas()[order]),
                params,
            )
            return dict(zip(order.tolist(), self.relaxed(rho, scores[order], params)))

        fwd = relaxed_by_pair(np.arange(n))
        rev = relaxed_by_pair(np.arange(n)[::-1])
        assert fwd == pytest.approx(rev)

    def test_consistent_geometry_beats_shuffled(self, rng):
        params = RelaxationParams()

        def mean_relaxed(ta, tb, cols):
            rho = compatibilities(
                side_geometry(ta.positions(), ta.thetas()),
                side_geometry(tb.positions()[cols], tb.thetas()[cols]),
                params,
            )
            return np.mean(self.relaxed(rho, [0.8] * 8, params))

        wins = 0
        for trial in range(100):
            ta = random_template(rng, n=8, tid="a")
            tb = rotate_template(ta, float(rng.uniform(-0.5, 0.5)), 10.0, -5.0)
            perm = rng.permutation(8)
            while (perm == np.arange(8)).all():
                perm = rng.permutation(8)
            wins += mean_relaxed(ta, tb, np.arange(8)) > mean_relaxed(ta, tb, perm)
        assert wins >= 95


class TestMatchScore:
    """``top_scores`` of one relaxed list, zero-padded to PAIR_SLOTS."""

    @staticmethod
    def top(values, n_p):
        score, raw, used = top_scores(
            padded(values, (PAIR_SLOTS,)), np.array([len(values)]), np.array([n_p])
        )
        return float(score[0]), int(used[0])

    def test_top_np_average(self):
        score, used = self.top([0.9, 0.8, 0.1], 2)
        assert score == pytest.approx(0.85)
        assert used == 2

    def test_all_zero(self):
        score, _ = self.top([0.0, 0.0], 2)
        assert score == 0.0

    def test_single_value(self):
        score, _ = self.top([0.42], 1)
        assert score == pytest.approx(0.42)

    def test_negative_clamped(self):
        score, _ = self.top([0.5, -0.9], 2)
        assert score == pytest.approx(0.25)

    def test_zero_n_p(self):
        assert self.top([0.5], 0) == (0.0, 0)

    def test_divides_by_requested_n_p(self):
        score, used = self.top([0.6], 4)
        assert score == pytest.approx(0.15)
        assert used == 1

    def test_monotone(self, rng):
        values = list(rng.uniform(0, 1, size=6))
        base, _ = self.top(values, 4)
        values[2] += 0.1
        bumped, _ = self.top(values, 4)
        assert bumped >= base
