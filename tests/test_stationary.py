"""Stationary CDF, quantile sampling, and the forced value at alpha."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldmap import (PiecewiseLinearCDF, PreconditionError, ThetaDist, is_small_vertex,
                     large_count, sample_stationary, stationary_cdf, stationary_quantile,
                     z_estimate)
from foldmap.orbit import CLASS_TOL
from foldmap.stationary import _quantile

ALPHA = math.sqrt(0.5)
Z_STAR = 2 * ALPHA / (1 + ALPHA)  # 0.8284271247461903
TWO_POINT = ThetaDist.two_point(ALPHA)


def brute_force_large_count(alpha, n):
    """Independent oracle: direct scan of <i*alpha> against alpha."""
    return sum(1 for i in range(1, n + 1) if (i * alpha) % 1.0 >= alpha)


def running_large_counts(alpha, n):
    """L_1 .. L_n at once (index 0 holds L_1), by the same scan vectorized."""
    return np.cumsum(np.arange(1, n + 1) * alpha % 1.0 >= alpha)


class TestStationaryCDF:
    def test_two_point_value_at_alpha(self):
        cdf = stationary_cdf(TWO_POINT)
        assert abs(cdf.evaluate(ALPHA) - Z_STAR) < 1e-12

    def test_two_point_upper_branch(self):
        cdf = stationary_cdf(TWO_POINT)
        assert abs(cdf.evaluate(0.9) - (0.9 + ALPHA) / (1 + ALPHA)) < 1e-12
        assert abs(cdf.evaluate(0.9) - 0.9414213562373095) < 1e-10

    def test_two_point_lower_branch(self):
        cdf = stationary_cdf(TWO_POINT)
        for x in (0.1, 0.3, 0.5, 0.7):
            assert abs(cdf.evaluate(x) - 2 * x / (1 + ALPHA)) < 1e-12

    def test_three_point_uniform(self):
        dist = ThetaDist.uniform([0.3, 0.5, 1.0])
        assert abs(dist.mean - 0.6) < 1e-15
        cdf = stationary_cdf(dist)
        # slope 1/E below 0.3, then (2/3)/E on [0.3, 0.5]
        assert abs(cdf.evaluate(0.4) - (0.3 + 0.1 * (2 / 3)) / 0.6) < 1e-12
        assert abs(cdf.evaluate(0.4) - 0.611111111111111) < 1e-12

    def test_cdf_sanity(self):
        for dist in (TWO_POINT, ThetaDist([0.2, 0.7, 0.9], [0.5, 0.2, 0.3])):
            cdf = stationary_cdf(dist)
            assert cdf.evaluate(0.0) == 0.0
            assert cdf.evaluate(dist.bound) == 1.0
            xs = np.linspace(0, dist.bound, 500)
            assert np.all(np.diff(cdf.evaluate(xs)) >= 0)

    def test_exports(self):
        cdf = stationary_cdf(TWO_POINT)
        assert cdf.to_csv().splitlines()[0] == "x,F"
        assert '"schema": 1' in cdf.to_json()


class TestQuantile:
    def test_edges(self):
        cdf = stationary_cdf(TWO_POINT)
        assert stationary_quantile(cdf, 0.0) == 0.0
        assert stationary_quantile(cdf, 1.0) == 1.0

    def test_inverse_at_alpha(self):
        cdf = stationary_cdf(TWO_POINT)
        assert abs(stationary_quantile(cdf, Z_STAR) - ALPHA) < 1e-12

    def test_round_trip(self):
        cdf = stationary_cdf(ThetaDist.uniform([0.3, 0.5, 1.0]))
        u = np.random.default_rng(0).random(1000)
        assert np.max(np.abs(cdf.evaluate(stationary_quantile(cdf, u)) - u)) < 1e-12

    def test_out_of_range_rejected(self):
        cdf = stationary_cdf(TWO_POINT)
        with pytest.raises(PreconditionError):
            stationary_quantile(cdf, -0.1)
        with pytest.raises(PreconditionError):
            stationary_quantile(cdf, 1.1)

    def test_nan_rejected(self):
        cdf = stationary_cdf(TWO_POINT)
        with pytest.raises(PreconditionError):
            stationary_quantile(cdf, math.nan)
        u = np.linspace(0.0, 1.0, 11)
        u[4] = math.nan
        with pytest.raises(PreconditionError):
            stationary_quantile(cdf, u)

    def test_empty_array(self):
        cdf = stationary_cdf(TWO_POINT)
        assert stationary_quantile(cdf, np.empty(0)).size == 0

    @pytest.mark.parametrize("xs, values, u, want", [
        # a flat piece: CDF(x) = 0.5 on [1, 2], so the smallest x is 1
        ([0, 1, 2, 3], [0, 0.5, 0.5, 1], 0.5, 1.0),
        ([0, 1, 2, 3], [0, 0.5, 0.5, 1], 0.6, 2.0 + 2 * (0.6 - 0.5)),
        ([0, 1, 2], [0, 0, 1], 0.0, 0.0),
        ([0, 1, 2], [0, 0, 1], 0.25, 1.25),
        ([0, 1, 2], [0, 1, 1], 1.0, 1.0),
        ([0, 1, 2, 3, 4], [0, 0.5, 0.5, 0.5, 1], 0.5, 1.0),
    ])
    def test_flat_piece_maps_to_its_left_end(self, xs, values, u, want):
        # np.interp over the values returned the right end of a flat piece
        cdf = PiecewiseLinearCDF(xs, values)
        assert stationary_quantile(cdf, u) == want
        assert stationary_quantile(cdf, np.array([u, u]))[1] == want
        assert cdf.evaluate(want) >= u


def piecewise_cdfs(pieces: int):
    """CDFs of `pieces` linear pieces with values that rise strictly, the
    knots spread over [-10, 100]."""
    gaps = st.lists(st.floats(1e-3, 10.0), min_size=pieces, max_size=pieces)
    rises = st.lists(st.floats(1e-3, 1.0), min_size=pieces, max_size=pieces)

    def build(first, run, rise):
        xs = first + np.concatenate(([0.0], np.cumsum(run)))
        values = np.concatenate(([0.0], np.cumsum(rise) / np.sum(rise)))
        values[-1] = 1.0
        return PiecewiseLinearCDF(xs, values)

    cdfs = st.builds(build, st.floats(-10.0, 10.0), gaps, rises)
    return cdfs.filter(lambda cdf: np.all(np.diff(cdf.values) > 0))


def with_neighbours(points: np.ndarray) -> np.ndarray:
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


PIECES = [1, 2, 3, 20]


class TestPiecewiseKernels:
    """The knot-wise kernels against np.interp, compared as bytes: bit for
    bit, with the sign of zero."""

    @pytest.mark.parametrize("pieces", PIECES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_quantile_is_interp(self, pieces, data):
        cdf = data.draw(piecewise_cdfs(pieces))
        extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=50))
        u = np.clip(with_neighbours(np.concatenate([cdf.values, [0.0, 1.0], extra])), 0.0, 1.0)
        order = data.draw(st.permutations(range(u.size)))
        for points in (np.sort(u), u[order]):
            want = np.interp(points, cdf.values, cdf.xs)
            assert stationary_quantile(cdf, points).tobytes() == want.tobytes()
            spare = points.copy()  # the report's form: u is overwritten
            got = _quantile(cdf, spare, np.empty(points.size), spare)
            assert got.tobytes() == want.tobytes()
        for point in u[:5].tolist():
            assert stationary_quantile(cdf, point) == float(np.interp(point, cdf.values, cdf.xs))

    @pytest.mark.parametrize("pieces", PIECES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ascending_evaluate_is_interp(self, pieces, data):
        cdf = data.draw(piecewise_cdfs(pieces))
        lo, hi = float(cdf.xs[0]) - 5.0, float(cdf.xs[-1]) + 5.0
        extra = data.draw(st.lists(st.floats(lo, hi), max_size=50))
        x = np.sort(with_neighbours(np.concatenate([cdf.xs, [0.0, 1.0, lo, hi], extra])))
        got = cdf._evaluate_ascending(x, np.empty(x.size))
        assert got.tobytes() == cdf.evaluate(x).tobytes()

    def test_stationary_cdfs(self):
        # the pinned dists, every knot and its neighbours, as the report reads them
        for dist in (TWO_POINT, ThetaDist([0.3, 0.6, 1.0], [0.2, 0.3, 0.5]),
                     ThetaDist(np.linspace(0.05, 1.0, 20), np.arange(1, 21) / 210)):
            cdf = stationary_cdf(dist)
            x = np.sort(with_neighbours(np.concatenate([cdf.xs, [-1.0, 2.0]])))
            assert cdf._evaluate_ascending(x, np.empty(x.size)).tobytes() == \
                cdf.evaluate(x).tobytes()
            u = np.clip(with_neighbours(cdf.values), 0.0, 1.0)
            assert stationary_quantile(cdf, u).tobytes() == \
                np.interp(u, cdf.values, cdf.xs).tobytes()


class TestSampleStationary:
    def test_ks_to_law(self):
        from foldmap import EmpiricalCDF, ks_distance
        cdf = stationary_cdf(TWO_POINT)
        sample = sample_stationary(cdf, np.random.default_rng(3), 10 ** 6)
        assert ks_distance(EmpiricalCDF(sample), cdf) < 0.002

    def test_degenerate_support_uniform(self):
        cdf = stationary_cdf(ThetaDist([0.4], [1.0]))
        sample = sample_stationary(cdf, np.random.default_rng(4), 10 ** 5)
        assert np.all((sample >= 0) & (sample <= 0.4))
        assert abs(sample.mean() - 0.2) < 0.002

    def test_quantile_monotone_in_u(self):
        cdf = stationary_cdf(TWO_POINT)
        lo, mid, hi = stationary_quantile(cdf, np.array([0.0, 0.5, 1.0]))
        assert lo == 0.0 and hi == 1.0 and lo < mid < hi


class TestLargeCount:
    def test_matches_bruteforce(self):
        for n in (1, 2, 3, 4, 7, 50, 313):
            assert large_count(ALPHA, n) == brute_force_large_count(ALPHA, n)

    def test_small_cases(self):
        # <alpha> sits exactly at the cut and is counted; <4 alpha> ~ .828
        assert large_count(ALPHA, 1) == 1
        assert large_count(ALPHA, 4) == 2

    def test_closed_form(self):
        for n in (10, 137, 4096):
            assert large_count(ALPHA, n) == n - math.floor(n * ALPHA)

    def test_density_limit(self):
        n = 10 ** 6
        assert abs(large_count(ALPHA, n) / n - (1 - ALPHA)) < 0.002

    def test_memory_at_the_bound(self):
        # one tile of indices at a time, where three n-sized arrays peaked at
        # 152.7 MiB
        tracemalloc.start()
        try:
            count = large_count(ALPHA, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 10 ** 7 - math.floor(10 ** 7 * ALPHA)
        assert peak < 5 * 2 ** 20

    def test_rational_alpha_periodic(self):
        # alpha = 1/4: orbit cycles .25, .5, .75, 0; three of four at or above
        assert large_count(0.25, 4) == 3
        assert large_count(0.25, 8) == 6

    def test_cumulative_consistent(self):
        cum = running_large_counts(ALPHA, 200)
        assert cum.tolist() == [large_count(ALPHA, n) for n in range(1, 201)]
        assert np.all(np.diff(cum) >= 0)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            large_count(ALPHA, 0)
        with pytest.raises(PreconditionError):
            large_count(1.5, 10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, 1.0, 1.5])
    def test_alpha_outside_unit_interval(self, alpha):
        # NaN and 1.5 gave all-zero counts and a False small-vertex test
        for call in (lambda: large_count(alpha, 5), lambda: is_small_vertex(alpha, 3)):
            with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
                call()


class TestAffineForm:
    """F(<n alpha>) = (2n - L) z - (2n - 2L) at small vertices, L = large_count(alpha, n)."""

    def test_small_vertex_coefficients(self):
        # L_3 = 1, so the form at n=3 is 5z - 4
        assert is_small_vertex(ALPHA, 3)
        L = large_count(ALPHA, 3)
        assert (2 * 3 - L, -(2 * 3 - 2 * L)) == (5, -4)
        assert abs(5 * Z_STAR - 4 - 2 * ((3 * ALPHA) % 1.0) / (1 + ALPHA)) < 1e-12

    def test_bootstrap_values_match_cdf(self):
        cdf = stationary_cdf(TWO_POINT)
        # the recurrence pins F(<-alpha>) = 2 - 2z and F(<2 alpha>) = 3z - 2
        assert abs((2 - 2 * Z_STAR) - cdf.evaluate((-ALPHA) % 1.0)) < 1e-12
        assert abs((3 * Z_STAR - 2) - cdf.evaluate((2 * ALPHA) % 1.0)) < 1e-12

    def test_non_small_vertex_rejected(self):
        assert not is_small_vertex(ALPHA, 2)  # <2 alpha> ~ 0.414 is medium

    def test_identity_on_all_small_vertices(self):
        n = np.arange(1, 10 ** 4 + 1)
        frac = n * ALPHA % 1.0
        small = frac < (1 - ALPHA) - 1e-12
        L = running_large_counts(ALPHA, 10 ** 4)
        lhs = (2 * n - L) * Z_STAR - (2 * n - 2 * L)
        rhs = 2 * frac / (1 + ALPHA)
        assert small.sum() > 2000
        assert np.max(np.abs(lhs[small] - rhs[small])) < 1e-9

    def test_identity_below_half(self):
        # same count convention serves alpha < 1/2, where it tallies the
        # medium-and-large vertices
        alpha = 1 - ALPHA
        z = 2 * alpha / (1 + alpha)
        n = np.arange(1, 5000)
        frac = n * alpha % 1.0
        small = frac < alpha - 1e-12
        L = running_large_counts(alpha, 4999)
        lhs = (2 * n - L) * z - (2 * n - 2 * L)
        rhs = 2 * frac / (1 + alpha)
        assert np.max(np.abs(lhs[small] - rhs[small])) < 1e-9


class TestSmallVertexExact:
    """<n*alpha> is taken on the double's exact value, for every integer n."""

    def test_float_product_rounds_to_an_integer(self):
        # the float n * alpha % 1.0 is 0.0 here, but the exact <n*alpha> is
        # 0.999995, a large vertex
        n = 100000000330
        assert n * ALPHA % 1.0 == 0.0
        assert not is_small_vertex(ALPHA, n)

    @staticmethod
    def reference(n):
        return Fraction(n) * Fraction(ALPHA) % 1 < min(ALPHA, 1 - ALPHA) - CLASS_TOL

    @pytest.mark.parametrize("n", [3, 41, -17, 10 ** 12, 3 ** 900],
                             ids=["3", "41", "-17", "1e12", "3^900"])
    def test_matches_exact_reference(self, n):
        # at 10^12 the float <n*alpha> is 0.547607, the exact one 0.547573
        assert is_small_vertex(ALPHA, n) == self.reference(n)

    def test_past_float_range(self):
        # n * alpha overflowed a float; 10**400 is a multiple of alpha's
        # denominator, so <n*alpha> is exactly 0, a small vertex
        n = 10 ** 400
        assert self.reference(n)
        assert is_small_vertex(ALPHA, n)


class TestZEstimate:
    # denominators of the rational approximations of alpha whose orbit
    # point lands in the small class, up to 10^4
    SMALL_Q = [3, 17, 99, 577, 3363]

    def test_small_vertex_filter(self):
        for q in self.SMALL_Q:
            assert is_small_vertex(ALPHA, q)
        for q in (1, 7, 41, 239, 1393, 8119):
            assert not is_small_vertex(ALPHA, q)

    def test_frozen_sequence(self):
        expected = [0.8, 0.8275862068965517, 0.8284023668639053,
                    0.8284263959390863, 0.8284271033618533]
        got = [z_estimate(ALPHA, q) for q in self.SMALL_Q]
        assert np.allclose(got, expected, atol=1e-12)

    def test_error_decreases(self):
        errs = [abs(z_estimate(ALPHA, q) - Z_STAR) for q in self.SMALL_Q]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_smallest_case_finite(self):
        assert z_estimate(ALPHA, 1) == 0.0  # L_1 = 1

    def test_limit_matches_cdf_at_alpha(self):
        cdf = stationary_cdf(TWO_POINT)
        assert abs(z_estimate(ALPHA, 3363) - cdf.evaluate(ALPHA)) < 1e-6
