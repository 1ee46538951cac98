import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import direction_difference, euclidean_distance, radial_angle
from fpfusion.geometry import (
    angular_difference,
    circular_bins,
    neighbor_pairs,
    normalize_angle,
    wrap_signed,
)
from fpfusion.templates import Minutia

angles = st.floats(-50.0, 50.0, allow_nan=False)


@pytest.mark.parametrize(
    "t1,t2,expected",
    [
        (0.0, math.pi, math.pi),
        (math.pi / 6, 11 * math.pi / 6, math.pi / 3),
        (1.234, 1.234, 0.0),
        (0.1, 2 * math.pi - 0.1, 0.2),
    ],
)
def test_angular_difference_values(t1, t2, expected):
    assert angular_difference(t1, t2) == pytest.approx(expected, abs=1e-12)


@given(angles, angles)
def test_angular_difference_symmetric_and_bounded(t1, t2):
    d = angular_difference(t1, t2)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(angular_difference(t2, t1), abs=1e-12)


@given(angles, angles, angles)
def test_angular_difference_triangle_inequality(a, b, c):
    assert angular_difference(a, c) <= (
        angular_difference(a, b) + angular_difference(b, c) + 1e-9
    )


@given(angles, angles, st.integers(-5, 5), st.integers(-5, 5))
def test_angular_difference_period_invariant(t1, t2, k1, k2):
    shifted = angular_difference(t1 + 2 * math.pi * k1, t2 + 2 * math.pi * k2)
    assert shifted == pytest.approx(angular_difference(t1, t2), abs=1e-9)


def test_angular_difference_array():
    out = angular_difference(np.array([0.0, math.pi / 6]), np.array([math.pi, 11 * math.pi / 6]))
    assert np.allclose(out, [math.pi, math.pi / 3])


def test_wrap_signed_range():
    for theta in np.linspace(-10, 10, 101):
        w = wrap_signed(theta)
        assert -math.pi <= w < math.pi


def ulps_from(x, k):
    """``x`` moved ``k`` representable doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


plus_minus_pi = st.sampled_from([math.pi, -math.pi])
near_pi = st.builds(ulps_from, plus_minus_pi, st.integers(-64, 64)) | st.builds(
    lambda base, offset: base + offset, plus_minus_pi, st.floats(-1e-9, 1e-9)
)


@given(near_pi)
@example(0.0 - math.nextafter(math.pi, 4.0))  # (theta + pi) % 2*pi rounds to 2*pi
def test_wrap_signed_near_pi_stays_below_pi(theta):
    for w in (wrap_signed(theta), wrap_signed(np.array([theta, 0.0]))[0]):
        assert -math.pi <= w < math.pi
        assert angular_difference(w, theta) <= 1e-15


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((0, 0), (3, 4), 5.0),
        ((2, 2), (2, 2), 0.0),
        ((1, 1), (4, 5), 5.0),
    ],
)
def test_euclidean_distance(a, b, expected):
    ma = Minutia(a[0], a[1], 0.0)
    mb = Minutia(b[0], b[1], 0.0)
    assert euclidean_distance(ma, mb) == pytest.approx(expected)


def test_direction_difference():
    assert direction_difference(Minutia(0, 0, 0.0), Minutia(0, 0, math.pi / 2)) == pytest.approx(
        math.pi / 2
    )
    assert direction_difference(Minutia(0, 0, 1.0), Minutia(5, 5, 1.0)) == 0.0
    assert direction_difference(
        Minutia(0, 0, 0.1), Minutia(0, 0, 2 * math.pi - 0.1)
    ) == pytest.approx(0.2, abs=1e-12)


def test_radial_angle_neighbor_ahead_behind():
    a = Minutia(0, 0, 0.0)
    assert radial_angle(a, Minutia(10, 0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert radial_angle(a, Minutia(-10, 0, 1.0)) == pytest.approx(math.pi, abs=1e-12)


def test_radial_angle_matches_direction():
    # neighbor placed on the ray at angle pi/2 from a (y decreases: image y-down)
    a = Minutia(0, 0, math.pi / 2)
    b = Minutia(0, -10, 0.0)
    assert radial_angle(a, b) == pytest.approx(0.0, abs=1e-12)


def test_radial_angle_asymmetric():
    a = Minutia(0, 0, 0.0)
    b = Minutia(10, 0, math.pi / 2)
    assert radial_angle(a, b) != pytest.approx(radial_angle(b, a))


def test_radial_angle_colocated_convention():
    assert radial_angle(Minutia(3, 4, 1.0), Minutia(3, 4, 2.0)) == 0.0


@pytest.mark.parametrize("theta", [-1e-17, -1e-300, -0.0, 0.0, 2 * math.pi])
def test_normalize_angle_stays_below_two_pi(theta):
    assert 0.0 <= normalize_angle(theta) < 2 * math.pi
    assert Minutia(0, 0, theta).theta == 0.0


def fmod_reference(theta1, theta2):
    """``angular_difference`` as one unconditional fmod pass."""
    d = np.fmod(np.abs(np.asarray(theta1) - np.asarray(theta2)), 2 * math.pi)
    return np.minimum(d, 2 * math.pi - d)


def same_bits(got, expected):
    return np.shape(got) == np.shape(expected) and (
        np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()
    )


special = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 2 * math.pi, 4 * math.pi])
any_angle = st.floats(-1e6, 1e6) | special


@given(
    st.lists(any_angle, min_size=0, max_size=12),
    st.lists(any_angle, min_size=0, max_size=12),
    any_angle,
)
@example([0.3, 2 * math.pi, -20.0, math.inf, math.nan], [1.2, 0.0, 3.0, 0.0, 1.0], 7.0)
def test_angular_difference_equals_fmod_form_bit_for_bit(a, b, scalar):
    """Scalars, 0-d, empty and array inputs, broadcasts, differences of 2*pi
    and more, negatives, +-inf and NaN."""
    k = min(len(a), len(b))
    a, b = np.array(a[:k], dtype=float), np.array(b[:k], dtype=float)
    cases = [
        (a, b),
        (a, scalar),
        (scalar, b),
        (a[:, None], b[None, :]),
        (np.array(scalar), a),
        (np.zeros((0, 3)), scalar),
    ]
    if k:
        cases += [(float(a[0]), float(b[0])), (np.array(a[0]), np.array(scalar))]
    with np.errstate(invalid="ignore"):
        for t1, t2 in cases:
            got, expected = angular_difference(t1, t2), fmod_reference(t1, t2)
            assert same_bits(got, expected)
            assert isinstance(got, float) == (np.ndim(expected) == 0)


def circular_bins_loop(values, bins, sigma):
    """``circular_bins`` one value and one bin at a time: the circular
    distance to the center -pi + (k + 1/2) * 2 * pi / bins, then the
    Gaussian. The exp is numpy's, as math.exp may differ from it in the
    last bit."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape + (bins,))
    for idx in np.ndindex(values.shape):
        x = float(values[idx])
        for k in range(bins):
            center = -math.pi + (k + 0.5) * (2.0 * math.pi / bins)
            d = math.fmod(abs(x - center), 2.0 * math.pi)
            q = min(d, 2.0 * math.pi - d) / sigma
            out[idx + (k,)] = np.exp(-0.5 * (q * q))
    return out


@pytest.mark.parametrize("bins", [1, 5, 6, 8])
@pytest.mark.parametrize("sigma", [0.2, 0.698, math.pi / 8])
@pytest.mark.parametrize("shape", [(40,), (7, 9)])
def test_circular_bins_equals_scalar_loop(bins, sigma, shape):
    rng = np.random.default_rng(bins * 100 + len(shape))
    values = rng.uniform(-math.pi, math.pi, size=shape)
    # +-pi, 0, the first bin center, a full turn and angles beyond it
    special = [-math.pi, 0.0, math.pi, -math.pi + math.pi / bins, 2 * math.pi, -7.5, 40.0]
    values.flat[: len(special)] = special
    got = circular_bins(values, bins, sigma)
    assert got.shape == shape + (bins,)
    assert np.array_equal(got, circular_bins_loop(values, bins, sigma))


@st.composite
def points_near_reach(draw):
    """A reach and 0-40 points on an extent up to 400 px; some are copies of
    another point and some lie at the reach or 0.5 px either side of it from
    another point, where the ``<=`` decides."""
    reach = draw(st.floats(1.0, 200.0))
    coord = st.floats(0.0, draw(st.floats(1.0, 400.0)))
    xy = [(draw(coord), draw(coord)) for _ in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.integers(0, 10)) if xy else 0):
        x, y = draw(st.sampled_from(xy))
        r = draw(st.sampled_from([0.0, reach - 0.5, reach, reach + 0.5]))
        phi = draw(st.floats(0.0, 2 * math.pi))
        xy.append((x + r * math.cos(phi), y + r * math.sin(phi)))
    return np.array(xy, dtype=float).reshape(-1, 2), reach


@given(points_near_reach())
def test_neighbor_pairs_equal_double_loop(case):
    xy, reach = case
    n = len(xy)
    pairs, start = [], [0]
    for i in range(n):
        for j in range(n):
            dx, dy = float(xy[j, 0] - xy[i, 0]), float(xy[j, 1] - xy[i, 1])
            dist = float(np.hypot(dx, dy))
            if i != j and dist <= reach:
                pairs.append((i, j, dx, dy, dist))
        start.append(len(pairs))
    i, j, dx, dy, dist, got_start = neighbor_pairs(xy, reach)
    expected = np.array(pairs, dtype=float).reshape(-1, 5)
    assert i.tolist() == expected[:, 0].astype(int).tolist()
    assert j.tolist() == expected[:, 1].astype(int).tolist()
    for got, column in zip((dx, dy, dist), expected.T[2:]):
        assert got.tobytes() == column.tobytes()
    assert got_start == start
