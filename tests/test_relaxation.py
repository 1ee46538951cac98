import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HUGE_SPAN_ROWS,
    MU,
    TAU,
    live_rows,
    pair_compatibility,
    padded,
    random_template,
    relax_padded,
    rotate_template,
    sigmoid_product,
    two_pass_side_geometry,
)
from fpfusion.geometry import angular_difference
from fpfusion.pairing import MAX_PAIRS_SCORE
from fpfusion.relaxation import (
    PAIR_SLOTS,
    RELAX_ITERATIONS,
    RELAX_WEIGHT,
    compatibilities,
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


class TestCompatibility:
    def test_identical_geometry_value(self):
        # independent evaluation: prod 1/(1+exp(tau_i*mu_i)) with Table-style params
        expected = 1.0
        for mu, tau in zip(MU, TAU):
            expected *= 1.0 / (1.0 + math.exp(tau * mu))
        assert expected == pytest.approx(0.75392, abs=1e-4)
        m1 = Minutia(0, 0, 0.0)
        m2 = Minutia(10, 5, 0.3)
        # identical geometry on both template sides -> d1=d2=d3=0
        got = pair_compatibility((m1, m1), (m2, m2))
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
        tau = (-30.0, -9.0, 0.0)
        t = random_template(rng, n=4)
        pair_t = (t.minutiae[0], t.minutiae[1])
        pair_k = (t.minutiae[2], t.minutiae[3])
        assert pair_compatibility(pair_t, pair_k, tau) == pytest.approx(
            pair_compatibility(pair_k, pair_t, tau), abs=1e-12
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
        # the pair list (i, i) for every minutia
        rho = compatibilities(
            side_geometry(ta.positions(), ta.thetas()),
            side_geometry(tb.positions(), tb.thetas()),
        )
        for t_idx in range(5):
            for k_idx in range(5):
                if t_idx == k_idx:
                    continue
                scalar = pair_compatibility(
                    (ta.minutiae[t_idx], tb.minutiae[t_idx]),
                    (ta.minutiae[k_idx], tb.minutiae[k_idx]),
                )
                assert rho[t_idx, k_idx] == pytest.approx(scalar, abs=1e-12)

    def test_range(self, rng):
        ta = random_template(rng, n=8, tid="a")
        tb = random_template(rng, n=8, tid="b")
        rho = compatibilities(
            side_geometry(ta.positions(), ta.thetas()),
            side_geometry(tb.positions(), tb.thetas()),
        )
        off = ~np.eye(8, dtype=bool)
        assert ((rho[off] > 0) & (rho[off] < 1)).all()


@st.composite
def pair_sides(draw):
    """Two sides of n pairs, each (xy, theta): random minutiae, some
    co-located with another of their side and some isolated, 500 px or more
    from the random ones."""
    n = draw(st.integers(0, 14))
    coord = st.floats(0.0, 500.0)
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    sides = []
    for _ in range(2):
        xy = np.array([[draw(coord), draw(coord)] for _ in range(n)]).reshape(n, 2)
        theta = np.array([draw(angle) for _ in range(n)])
        for i in range(n):
            kind = draw(st.sampled_from(["plain", "plain", "co-located", "isolated"]))
            if kind == "co-located" and i:
                xy[i] = xy[draw(st.integers(0, i - 1))]
            elif kind == "isolated":
                xy[i] = (draw(st.floats(1000.0, 1500.0)), draw(st.floats(0.0, 500.0)))
        sides.append((xy, theta))
    return sides


@settings(max_examples=100, deadline=None)
@given(pair_sides())
def test_compatibilities_equal_the_circular_difference_form(sides):
    """Both sides' angles lie in [0, pi], so the plain difference gives the
    bits of the circular one."""
    side_a, side_b = (side_geometry(xy, theta) for xy, theta in sides)
    d1 = np.abs(side_a[0] - side_b[0]) / 100.0
    d2 = np.abs(angular_difference(side_a[1], side_b[1]))
    d3 = np.abs(angular_difference(side_a[2], side_b[2]))
    expected = sigmoid_product(d1, d2, d3)
    got = compatibilities(side_a, side_b)
    assert got.tobytes() == np.asarray(expected).tobytes()
    assert got.shape == np.shape(expected)


@st.composite
def batched_sides(draw):
    """Two sides of shape (n, 2) and (n,), or (B, n, 2) and (B, n), n from 0:
    coordinates from a small grid (so equal x or equal y, and -0.0) or
    continuous, some minutiae co-located with another, some sharing only x
    or only y with another, some isolated, and some over 3,000 px away,
    where the distance sigmoid's exponent overflows."""
    lead = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    n = draw(st.integers(0, 10))
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    coord = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 40.0]), st.floats(-100.0, 500.0))
    sides = []
    for _ in range(2):
        rows = math.prod(lead)
        flat = np.array([draw(coord) for _ in range(rows * n * 2)]).reshape(rows, n, 2)
        theta = np.array([draw(angle) for _ in range(rows * n)]).reshape(*lead, n)
        for row in flat:
            for i in range(n):
                kind = draw(
                    st.sampled_from(["plain", "co-located", "same-x", "same-y", "isolated", "far"])
                )
                j = draw(st.integers(0, max(i - 1, 0)))  # another minutia, or itself
                if kind == "co-located":
                    row[i] = row[j]
                elif kind in ("same-x", "same-y"):
                    axis = 0 if kind == "same-x" else 1
                    row[i, axis] = row[j, axis]
                elif kind == "isolated":
                    row[i] = (draw(st.floats(1000.0, 1500.0)), draw(st.floats(0.0, 500.0)))
                elif kind == "far":
                    row[i, 0] += 3000.0
        sides.append((flat.reshape(*lead, n, 2), theta))
    return sides


@settings(max_examples=200, deadline=None)
@given(batched_sides())
def test_one_pass_geometry_equals_two_pass_reference(sides):
    """``side_geometry`` forms each offset once; its distance, direction
    difference and radial angle, and the compatibilities built from them,
    keep the bits of the two-pass form and the separate sigmoid product."""
    got = [side_geometry(xy, theta) for xy, theta in sides]
    want = [two_pass_side_geometry(xy, theta) for xy, theta in sides]
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    d1 = np.abs(want[0][0] - want[1][0]) / 100.0
    d2 = np.abs(want[0][1] - want[1][1])
    d3 = np.abs(want[0][2] - want[1][2])
    expected = sigmoid_product(d1, d2, d3)
    rho = compatibilities(got[0], got[1])
    assert rho.shape == np.shape(expected)
    assert rho.tobytes() == np.asarray(expected).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_geometry_distance_is_hypot_on_a_1e200_px_span():
    # the squared offsets overflow here, so sqrt(dx * dx + dy * dy) would not
    # do in place of hypot
    rows = np.array(HUGE_SPAN_ROWS)
    xy, theta = rows[:, :2], rows[:, 2]
    dist = side_geometry(xy, theta)[0]
    want = np.hypot(xy[None, :, 0] - xy[:, None, 0], xy[None, :, 1] - xy[:, None, 1])
    assert dist.tobytes() == want.tobytes()
    assert np.isfinite(dist).all() and dist.max() > 1e200


class TestRelax:
    """``relax_scores`` on the live rows of one pair list, zero-padded to
    PAIR_SLOTS."""

    @staticmethod
    def relaxed(rho, gamma, weight=RELAX_WEIGHT, iterations=RELAX_ITERATIONS):
        n = np.array([len(gamma)])
        rho = live_rows(padded(rho, (PAIR_SLOTS, PAIR_SLOTS)), n)
        gamma = padded(gamma, (PAIR_SLOTS,))
        return relax_scores(rho, gamma, n, weight, iterations)[0, : n[0]]

    def test_two_pair_hand_example(self):
        # rho = 1 everywhere off-diagonal, gamma0 = (0.8, 0.6), one iteration
        assert self.relaxed(np.ones((2, 2)), [0.8, 0.6], 0.5, 1) == pytest.approx([0.7, 0.7])

    def test_fixed_point_all_equal(self):
        out = self.relaxed(np.ones((3, 3)), [0.4, 0.4, 0.4])
        assert out == pytest.approx([0.4, 0.4, 0.4])

    def test_zero_rho_geometric_decay(self):
        out = self.relaxed(np.zeros((2, 2)), [0.8, 0.6], 0.5, 5)
        assert out == pytest.approx([0.8 * 0.5**5, 0.6 * 0.5**5])

    def test_single_pair_bypasses(self):
        assert self.relaxed(np.full((1, 1), 0.3), [0.66])[0] == 0.66

    def test_matches_oracle_and_bounded(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            ta = random_template(rng, n=n, tid="a")
            tb = random_template(rng, n=n, tid="b")
            scores = rng.uniform(0, 1, size=n)
            weight, iterations = float(rng.uniform(0, 1)), int(rng.integers(1, 7))
            rho = compatibilities(
                side_geometry(ta.positions(), ta.thetas()),
                side_geometry(tb.positions(), tb.thetas()),
            )
            expected = relax_oracle(scores, rho, weight, iterations)
            got = list(self.relaxed(rho, scores, weight, iterations))
            assert got == pytest.approx(expected, abs=1e-12)
            assert all(0.0 <= g <= 1.0 for g in got)

    def test_order_independence(self, rng):
        n = 6
        ta = random_template(rng, n=n, tid="a")
        tb = random_template(rng, n=n, tid="b")
        scores = np.array(rng.uniform(0, 1, size=n))

        def relaxed_by_pair(order):
            rho = compatibilities(
                side_geometry(ta.positions()[order], ta.thetas()[order]),
                side_geometry(tb.positions()[order], tb.thetas()[order]),
            )
            return dict(zip(order.tolist(), self.relaxed(rho, scores[order])))

        fwd = relaxed_by_pair(np.arange(n))
        rev = relaxed_by_pair(np.arange(n)[::-1])
        assert fwd == pytest.approx(rev)

    def test_consistent_geometry_beats_shuffled(self, rng):
        def mean_relaxed(ta, tb, cols):
            rho = compatibilities(
                side_geometry(ta.positions(), ta.thetas()),
                side_geometry(tb.positions()[cols], tb.thetas()[cols]),
            )
            return np.mean(self.relaxed(rho, [0.8] * 8))

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


class TestRowForm:
    """The row-form ``relax_scores`` against the padded (K, P, P) oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.lists(st.integers(0, PAIR_SLOTS), min_size=1, max_size=8),
        gamma_kind=st.sampled_from(["uniform", "zero", "negative-zero", "negative", "signed"]),
        weight=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
        iterations=st.integers(0, 6),
    )
    @example(seed=0, n=list(range(PAIR_SLOTS + 1)), gamma_kind="signed", weight=0.5, iterations=5)
    def test_equals_padded_oracle(self, seed, n, gamma_kind, weight, iterations):
        rng = np.random.default_rng(seed)
        n = np.array(n)
        size = len(n)
        rho = rng.uniform(0.0, 1.0, (size, PAIR_SLOTS, PAIR_SLOTS))
        rho[rng.random(rho.shape) < 0.2] = 0.0
        gamma = {
            "uniform": lambda: rng.uniform(0.0, 1.0, (size, PAIR_SLOTS)),
            "zero": lambda: np.zeros((size, PAIR_SLOTS)),
            "negative-zero": lambda: np.full((size, PAIR_SLOTS), -0.0),
            "negative": lambda: -rng.uniform(0.0, 1.0, (size, PAIR_SLOTS)),
            "signed": lambda: rng.uniform(-1.0, 1.0, (size, PAIR_SLOTS)),
        }[gamma_kind]()
        live = np.arange(PAIR_SLOTS) < n[:, None]
        n_p = rng.integers(0, MAX_PAIRS_SCORE + 1, size)

        # the engine zeroes the padding of gamma; the row form never reads it
        oracle = relax_padded(rho.copy(), np.where(live, gamma, 0.0), n, weight, iterations)
        expected = top_scores(oracle, n, n_p)
        got = top_scores(relax_scores(live_rows(rho, n), gamma, n, weight, iterations), n, n_p)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not np.signbit(got[0]).any()
