"""Unit tests for the scalar statistical primitives.

Reference values are recomputed here with mpmath at 50 significant
digits, independently of the float implementation under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds_onedecoy.stat_math import (
    binary_entropy,
    binary_entropy_inverse,
    gamma_correction,
    hoeffding_delta,
    serfling_error_upper,
)

mp.mp.dps = 50


def mp_entropy(x):
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def mp_entropy_inverse(y):
    """Root of h(x) = y on [0, 1/2] at 50 digits, by a bracketing solver."""
    y = mp.mpf(y)
    if y == 0:
        return mp.mpf(0)
    if y == 1:
        return mp.mpf(0.5)
    return mp.findroot(lambda x: mp_entropy(x) - y, (mp.mpf(10) ** -40, mp.mpf(0.5)),
                       solver="illinois")


def bisection_inverse(y):
    """The 42-step float bisection that Newton's method replaced, kept as a reference."""
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0218, 0.0253, 0.039, 0.1081, 0.25, 0.4999])
    def test_against_high_precision(self, x):
        assert binary_entropy(x) == pytest.approx(float(mp_entropy(x)), abs=1e-12)

    def test_small_phase_error_value(self):
        # independently recomputed: h(0.0218) = 0.15143113...
        assert binary_entropy(0.0218) == pytest.approx(0.1514311317, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)


class TestBinaryEntropyInverse:
    def test_endpoints(self):
        assert binary_entropy_inverse(0.0) == 0.0
        assert binary_entropy_inverse(1.0) == 0.5

    def test_known_value(self):
        # independently recomputed: h^-1(0.57377) = 0.13603879...
        assert binary_entropy_inverse(0.57377) == pytest.approx(0.1360387913, abs=1e-9)

    @pytest.mark.parametrize("x", [i / 200 for i in range(1, 100)])
    def test_round_trip_dense(self, x):
        assert binary_entropy_inverse(binary_entropy(x)) == pytest.approx(x, abs=1e-10)

    @given(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
    @settings(max_examples=200)
    def test_forward_round_trip(self, y):
        assert binary_entropy(binary_entropy_inverse(y)) == pytest.approx(y, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy_inverse(1.5)

    def test_array_meets_both_references(self):
        ys = np.concatenate([[0.0, 1.0], np.geomspace(1e-12, 0.999, 300)])
        xs = binary_entropy_inverse(ys)
        assert xs.shape == ys.shape
        assert np.max(np.abs(binary_entropy(xs) - ys)) < 1e-10
        exact = np.array([float(mp_entropy_inverse(y)) for y in ys])
        assert np.max(np.abs(xs - exact)) < 1e-13
        bisected = np.array([bisection_inverse(y) for y in ys])
        assert np.max(np.abs(xs - bisected)) < 1e-13


class TestHoeffdingDelta:
    def test_known_value(self):
        expected = float(mp.sqrt(mp.mpf(2000) / 2 * mp.log(mp.mpf(10) ** 5)))
        assert hoeffding_delta(2000, 1e-5) == pytest.approx(expected, rel=1e-12)
        assert hoeffding_delta(2000, 1e-5) == pytest.approx(107.2983, abs=1e-4)

    def test_degenerate(self):
        assert hoeffding_delta(0, 1e-5) == 0.0
        assert hoeffding_delta(500, 1.0) == 0.0

    @given(
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1e-12, max_value=0.99),
    )
    def test_monotone_in_n(self, n, eps):
        assert hoeffding_delta(2 * n, eps) > hoeffding_delta(n, eps)

    def test_domain(self):
        with pytest.raises(ValueError):
            hoeffding_delta(-1, 0.1)
        with pytest.raises(ValueError):
            hoeffding_delta(10, 0.0)
        with pytest.raises(ValueError):
            hoeffding_delta(10, 1.5)


class TestSerfling:
    def test_known_values(self):
        # recomputed at high precision for E=0.002, L=50000, eps=1e-5
        assert serfling_error_upper(0.002, 50000, 2500, 1e-5) == pytest.approx(
            0.052328371, abs=1e-8
        )
        assert serfling_error_upper(0.002, 50000, 5000, 1e-5) == pytest.approx(
            0.039169965, abs=1e-8
        )

    def test_collapses_without_fluctuation(self):
        assert serfling_error_upper(0.031, 10000, 500, 1.0) == 0.031

    def test_never_below_observation(self):
        for k in (10, 100, 1000):
            assert serfling_error_upper(0.05, 20000, k, 1e-5) >= 0.05

    def test_clamped_to_one(self):
        assert serfling_error_upper(0.9, 100, 1, 1e-10) == 1.0

    @given(st.integers(min_value=1, max_value=4000))
    @settings(max_examples=100)
    def test_monotone_decreasing_in_k(self, k):
        a = serfling_error_upper(0.01, 100000, k, 1e-5)
        b = serfling_error_upper(0.01, 100000, k + 50, 1e-5)
        assert b <= a

    def test_domain(self):
        with pytest.raises(ValueError):
            serfling_error_upper(0.01, 1000, 0, 1e-5)
        with pytest.raises(ValueError):
            serfling_error_upper(0.01, 1, 10, 1e-5)
        with pytest.raises(ValueError):
            serfling_error_upper(1.2, 1000, 10, 1e-5)


class TestGammaCorrection:
    def mp_gamma(self, a, b, c, d):
        a, b, c, d = (mp.mpf(repr(v)) for v in (a, b, c, d))
        t1 = (c + d) * (1 - b) * b / (c * d * mp.log(2))
        t2 = mp.log((c + d) / (c * d * (1 - b) * b) * (21 / a) ** 2, 2)
        return float(mp.sqrt(t1 * t2))

    def test_known_values(self):
        assert gamma_correction(1e-10, 0.05, 1e5, 1e5) == pytest.approx(
            0.0093663685, abs=1e-9
        )
        assert gamma_correction(1e-10, 0.05, 1e6, 1e6) == pytest.approx(
            0.0028840242, abs=1e-9
        )

    @pytest.mark.parametrize(
        "a,b,c,d",
        [(1e-10, 0.05, 1e5, 3e5), (1e-5, 0.2, 1e4, 1e7), (1e-9, 0.001, 5e5, 5e5)],
    )
    def test_matches_high_precision(self, a, b, c, d):
        assert gamma_correction(a, b, c, d) == pytest.approx(
            self.mp_gamma(a, b, c, d), rel=1e-10
        )

    @given(
        st.floats(min_value=1e-4, max_value=0.4),
        st.floats(min_value=100.0, max_value=1e8),
        st.floats(min_value=100.0, max_value=1e8),
    )
    @settings(max_examples=100)
    def test_symmetric_in_sample_sizes(self, b, c, d):
        assert gamma_correction(1e-10, b, c, d) == pytest.approx(
            gamma_correction(1e-10, b, d, c), rel=1e-12
        )

    def test_vanishes_instead_of_nan_for_huge_samples(self):
        # (c + d) / (c d b (1 - b)) * (21 / a)^2 falls below 1 here
        assert gamma_correction(1e-3, 0.05, 1e17, 1e17) == 0.0

    def test_shrinks_with_more_data(self):
        small = gamma_correction(1e-10, 0.05, 1e5, 1e5)
        large = gamma_correction(1e-10, 0.05, 1e6, 1e6)
        assert large < small

    @pytest.mark.parametrize("b", [0.0, 1.0, -0.1, 1.2])
    def test_rejects_degenerate_rate(self, b):
        with pytest.raises(ValueError):
            gamma_correction(1e-10, b, 1e5, 1e5)

    def test_rejects_bad_sizes_and_failure_prob(self):
        with pytest.raises(ValueError):
            gamma_correction(0.0, 0.1, 1e5, 1e5)
        with pytest.raises(ValueError):
            gamma_correction(1e-10, 0.1, 0.0, 1e5)


def test_entropy_is_concave_midpoint():
    # h((x+y)/2) >= (h(x)+h(y))/2 on a grid
    xs = [i / 20 for i in range(21)]
    for x in xs:
        for y in xs:
            lhs = binary_entropy((x + y) / 2)
            rhs = 0.5 * (binary_entropy(x) + binary_entropy(y))
            assert lhs >= rhs - 1e-12


#: (function, arguments, message) with one argument NaN; the domain check
#: of each must reject it rather than return NaN.
NAN_CALLS = {
    "hoeffding_delta-n": (hoeffding_delta, (math.nan, 0.1), "trial count"),
    "serfling_error_upper-e_obs": (
        serfling_error_upper, (math.nan, 100, 10, 1e-5), "observed error rate"),
    "serfling_error_upper-L": (serfling_error_upper, (0.01, math.nan, 10, 1e-5), "block length"),
    "serfling_error_upper-k": (serfling_error_upper, (0.01, 100, math.nan, 1e-5), "test sample"),
    "gamma_correction-b": (gamma_correction, (1e-5, math.nan, 100, 10), "rate must"),
    "gamma_correction-c": (gamma_correction, (1e-5, 0.1, math.nan, 10), "sample sizes"),
    "gamma_correction-d": (gamma_correction, (1e-5, 0.1, 100, math.nan), "sample sizes"),
    "binary_entropy-x": (binary_entropy, (math.nan,), "argument must"),
    "binary_entropy_inverse-y": (binary_entropy_inverse, (math.nan,), "argument must"),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_argument_is_rejected(call):
    fn, args, message = call
    with pytest.raises(ValueError, match=message):
        fn(*args)
    # the same inside a batch
    with pytest.raises(ValueError, match=message):
        fn(*(np.array([x, x]) if isinstance(x, float) and math.isnan(x) else x for x in args))
