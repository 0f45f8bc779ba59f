"""Response-curve identities, finite-difference slope oracle, curve fits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bktirt import Irf4pl, fit_irf_cd, irf_4pl, irf_slope_max, logistic
from bktirt.errors import DegenerateFit, InsufficientData


def _fuzzed_items(n, seed):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        c = rng.uniform(0.0, 0.45)
        d = rng.uniform(c + 0.05, 1.0)
        items.append(Irf4pl(a=rng.uniform(0.2, 4.0), b=rng.uniform(-3, 3), c=c, d=d))
    return items


def test_logistic_overflow_safe_at_extremes():
    assert logistic(800.0) == 1.0
    assert logistic(-800.0) == 0.0
    assert logistic(0.0) == 0.5


def test_midpoint_is_half():
    assert irf_4pl(1.5, Irf4pl(a=1.0, b=1.5)) == pytest.approx(0.5, abs=1e-15)


def test_log_three_advantage_gives_three_quarters():
    item = Irf4pl(a=1.0, b=0.0)
    assert irf_4pl(math.log(3.0), item) == pytest.approx(0.75, abs=1e-12)


def test_midpoint_with_asymptotes_is_their_mean():
    item = Irf4pl(a=1.0, b=0.0, c=0.1, d=0.9)
    assert irf_4pl(0.0, item) == pytest.approx(0.5, abs=1e-15)


def test_values_confined_to_asymptotes_and_limits():
    for item in _fuzzed_items(200, seed=2):
        theta = np.linspace(item.b - 50, item.b + 50, 41)
        values = irf_4pl(theta, item)
        assert np.all(values >= item.c) and np.all(values <= item.d)
        # Asymptotes reached once the scaled advantage a*(theta-b) is +-50.
        span = 50.0 / item.a
        assert irf_4pl(item.b - max(50.0, span), item) == pytest.approx(item.c, abs=1e-12)
        assert irf_4pl(item.b + max(50.0, span), item) == pytest.approx(item.d, abs=1e-12)
        assert np.all(np.diff(values) >= 0)


def test_symmetry_about_difficulty():
    rng = np.random.default_rng(7)
    for item in _fuzzed_items(100, seed=3):
        x = rng.uniform(0, 10)
        total = irf_4pl(item.b + x, item) + irf_4pl(item.b - x, item)
        assert total == pytest.approx(item.c + item.d, abs=1e-12)


def test_logistic_reflects_about_one_half():
    z = np.linspace(-40.0, 40.0, 161)
    np.testing.assert_allclose(logistic(-z), 1.0 - logistic(z), rtol=0.0, atol=2e-16)


def test_constrained_forms_are_the_defaults():
    # d = 1 gives the 3PL, c = 0 as well the 2PL, a = 1 as well the 1PL:
    # the logistic of theta - b.
    assert Irf4pl(a=2.0, b=-1.0) == Irf4pl(a=2.0, b=-1.0, c=0.0, d=1.0)
    rng = np.random.default_rng(8)
    for _ in range(200):
        b, theta = rng.uniform(-3, 3), rng.uniform(-8, 8)
        assert irf_4pl(theta, Irf4pl(a=1.0, b=b)) == pytest.approx(logistic(theta - b), abs=1e-15)


def test_array_input_matches_scalar_calls():
    theta = np.linspace(-6.0, 6.0, 49)
    for item in _fuzzed_items(20, seed=9):
        values = irf_4pl(theta, item)
        assert values.shape == theta.shape
        assert values.tolist() == [irf_4pl(float(x), item) for x in theta]


def test_overflowing_advantage_gives_the_exact_asymptote(recwarn):
    # a * (theta - b) past the float range is +-inf: its logistic is the
    # asymptote itself, with no overflow warning.
    item = Irf4pl(a=1e300, b=0.0, c=0.1, d=0.9)
    assert irf_4pl(1e10, item) == 0.9
    assert irf_4pl(-1e10, item) == 0.1
    assert irf_4pl(np.array([-1e10, 0.0, 1e10]), item).tolist() == [0.1, 0.5, 0.9]
    assert len(recwarn) == 0


class TestSlope:
    def test_closed_form_values(self):
        assert irf_slope_max(Irf4pl(a=1.0, b=0.0)) == pytest.approx(0.25)
        assert irf_slope_max(Irf4pl(a=2.0, b=0.0, c=0.1, d=0.9)) == pytest.approx(0.4)

    def test_matches_central_difference_at_difficulty(self):
        h = 1e-5
        for item in _fuzzed_items(300, seed=4):
            numeric = (irf_4pl(item.b + h, item) - irf_4pl(item.b - h, item)) / (2 * h)
            assert abs(irf_slope_max(item) - numeric) < 1e-6

    def test_matches_central_difference_at_fuzzed_theta(self):
        # Gradient of the curve itself: a*(d-c)*s*(1-s) at any theta.
        rng = np.random.default_rng(5)
        h = 1e-5
        for item in _fuzzed_items(200, seed=6):
            theta = rng.uniform(item.b - 4, item.b + 4)
            s = logistic(item.a * (theta - item.b))
            analytic = item.a * (item.d - item.c) * s * (1 - s)
            numeric = (irf_4pl(theta + h, item) - irf_4pl(theta - h, item)) / (2 * h)
            assert abs(analytic - numeric) < 1e-6


class TestFitAsymptotes:
    def _curve_bins(self, c, d, a=1.0, lo=-6.0, hi=6.0, n=25):
        x = np.linspace(lo, hi, n)
        p = c + (d - c) * logistic(a * x)
        return [(float(xi), float(pi), 40.0) for xi, pi in zip(x, p)]

    def test_exact_recovery_on_noiseless_curve(self):
        c, d, rmse = fit_irf_cd(self._curve_bins(0.1, 0.9), a_fixed=1.0)
        assert abs(c - 0.1) < 1e-9 and abs(d - 0.9) < 1e-9
        assert rmse < 1e-9

    def test_exact_recovery_at_boundary(self):
        c, d, rmse = fit_irf_cd(self._curve_bins(0.0, 1.0), a_fixed=1.0)
        assert abs(c) < 1e-9 and abs(d - 1.0) < 1e-9

    def test_exact_recovery_fuzzed(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c_true = rng.uniform(0, 0.45)
            d_true = rng.uniform(c_true + 0.1, 1.0)
            a = rng.uniform(0.3, 3.0)
            c, d, _ = fit_irf_cd(self._curve_bins(c_true, d_true, a=a), a_fixed=a)
            assert abs(c - c_true) < 1e-9 and abs(d - d_true) < 1e-9

    def test_single_bin_rejected(self):
        with pytest.raises(InsufficientData):
            fit_irf_cd([(0.0, 0.5, 10.0)], a_fixed=1.0)

    def test_zero_count_bins_ignored(self):
        bins = [(0.0, 0.5, 10.0), (1.0, 0.7, 0.0)]
        with pytest.raises(InsufficientData):
            fit_irf_cd(bins, a_fixed=1.0)

    def test_equal_advantages_rejected(self):
        with pytest.raises(DegenerateFit):
            fit_irf_cd([(0.3, 0.5, 10.0), (0.3, 0.6, 20.0)], a_fixed=1.0)

    def test_saturated_design_rejected(self):
        # logistic(100) and logistic(200) both round to 1.0, so the two
        # distinct advantages give one basis row and a zero determinant.
        with pytest.raises(DegenerateFit, match="rank-deficient"):
            fit_irf_cd([(100.0, 0.9, 10.0), (200.0, 0.8, 20.0)], a_fixed=1.0)

    def test_constrained_optimum_beats_a_grid(self):
        # The loss is a convex quadratic in (c, d), so the optimum on
        # 0 <= c <= d <= 1 is at least as good as every grid point there.
        # Shifted, scaled and flat curves put the unconstrained optimum
        # outside the triangle, where clipping c and d one at a time is not
        # the constrained optimum.
        rng = np.random.default_rng(47)
        grid = np.linspace(0.0, 1.0, 201)
        c_grid, d_grid = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        keep = c_grid <= d_grid
        c_grid, d_grid = c_grid[keep], d_grid[keep]
        for _ in range(60):
            x = np.sort(rng.uniform(-5.0, 5.0, size=rng.integers(2, 12)))
            a = rng.uniform(0.3, 3.0)
            s = logistic(a * x)
            p = rng.uniform(-0.4, 0.4) + rng.uniform(-0.5, 1.5) * s
            p = p + rng.normal(0.0, 0.05, size=x.size)
            w = rng.uniform(1.0, 100.0, size=x.size)
            c, d, rmse = fit_irf_cd(list(zip(x, p, w)), a_fixed=a)
            assert 0.0 <= c < d <= 1.0
            fitted = c_grid[:, None] + (d_grid - c_grid)[:, None] * s
            grid_mse = (np.sum(w * (p - fitted) ** 2, axis=1) / w.sum()).min()
            assert rmse**2 <= grid_mse + 1e-12

    def test_worked_example_lands_on_the_c_zero_edge(self):
        # p ~ -0.15 + logistic(x): the unconstrained c is negative, and the
        # optimum moves along c = 0 to a smaller d than clipping c gives.
        x = np.arange(-4.0, 5.0)
        p = -0.15 + logistic(x) + np.random.default_rng(3).normal(0.0, 0.01, x.size)
        c, d, rmse = fit_irf_cd([(xi, pi, 100.0) for xi, pi in zip(x, p)], a_fixed=1.0)
        s = logistic(x)
        assert c == 0.0
        assert abs(d - np.sum(p * s) / np.sum(s * s)) < 1e-12
        assert abs(rmse - np.sqrt(np.mean((p - d * s) ** 2))) < 1e-12

    def test_flat_data_at_the_top_keeps_d_at_most_one(self):
        c, d, _ = fit_irf_cd([(-1.0, 1.0, 5.0), (1.0, 1.0, 5.0)], a_fixed=1.0)
        assert c < d == 1.0

    def test_estimates_projected_into_unit_box(self):
        bins = [(-6.0, 0.0, 50.0), (-3.0, 0.0, 50.0), (3.0, 1.0, 50.0), (6.0, 1.0, 50.0)]
        c, d, _ = fit_irf_cd(bins, a_fixed=1.0)
        assert 0.0 <= c < d <= 1.0
