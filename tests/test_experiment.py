"""Population experiment: determinism, exactness on a single pair, binning."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.stats import binomtest

from bktirt import (
    BktParams,
    BinnedCurve,
    Irf4pl,
    RngKey,
    SimConfig,
    compare_to_irf,
    draw_population,
    expected_curves,
    irf_4pl,
    marginal_at,
    run_equilibrium_experiment,
)
from bktirt.errors import InsufficientData, OutOfRange
from bktirt.experiment import (
    _pair_bins,
    _simulate_person_block,
    summarize_curves,
    work_counts,
    worker_count,
    write_curves_csv,
)

# Family-wise false-alarm probability of the per-bin binomial tests against
# the exact expectation; Bonferroni-split over every (step count, bin) cell.
FAMILY_ALPHA = 1e-3


def _binomial_p_values(curves, expected):
    """Exact two-sided binomial p-value of every (step count, bin) cell.

    A bin's correct count is a sum of independent Bernoulli draws whose
    means average to the expected proportion; its tails are no heavier than
    the binomial's at that mean (Hoeffding 1956), so the test is valid.
    """
    p_values = []
    for t, curve in curves.items():
        np.testing.assert_array_equal(curve.bin_centers, expected[t].bin_centers)
        np.testing.assert_array_equal(curve.n_obs, expected[t].n_obs)
        for prop, n, p in zip(curve.prop_correct, curve.n_obs, expected[t].prop_correct):
            k = int(round(prop * n))
            assert abs(k - prop * n) < 1e-6
            p_values.append(binomtest(k, int(n), float(p)).pvalue)
    return np.array(p_values)


class TestSimConfig:
    def test_defaults_are_full_scale(self):
        config = SimConfig()
        assert (config.n_people, config.n_items, config.replications) == (1000, 100, 1000)
        assert config.iteration_counts == (2, 5, 50)
        assert config.p_slip == config.p_guess == 0.1

    def test_desk_preset(self):
        config = SimConfig.desk(seed=1)
        assert (config.n_people, config.n_items, config.replications) == (200, 50, 200)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            SimConfig(n_people=0)
        with pytest.raises(OutOfRange):
            SimConfig(iteration_counts=())
        with pytest.raises(OutOfRange):
            SimConfig(iteration_counts=(0,))
        with pytest.raises(OutOfRange):
            SimConfig(bin_width=0.0)
        with pytest.raises(OutOfRange):
            SimConfig(p_slip=1.5)

    def test_equilibrium_curve_parameters(self):
        item = SimConfig(p_slip=0.2, p_guess=0.05).irf()
        assert item == Irf4pl(a=1.0, b=0.0, c=0.05, d=0.8)


class TestDrawPopulation:
    def test_deterministic_under_key(self):
        config = SimConfig.desk(seed=5)
        one = draw_population(config, RngKey(5, (0,)))
        two = draw_population(config, RngKey(5, (0,)))
        np.testing.assert_array_equal(one.p_learn, two.p_learn)
        np.testing.assert_array_equal(one.p_forget, two.p_forget)

    def test_rates_strictly_inside_unit_interval(self):
        pop = draw_population(SimConfig.desk(seed=6), RngKey(6, (0,)))
        for rates in (pop.p_learn, pop.p_forget):
            assert np.all(rates > 0) and np.all(rates < 1)

    def test_log_scores_nonpositive(self):
        pop = draw_population(SimConfig.desk(seed=7), RngKey(7, (0,)))
        assert np.all(pop.theta <= 0) and np.all(pop.b <= 0)
        np.testing.assert_allclose(pop.theta, np.log(pop.p_learn))

    def test_uniform_mean(self):
        config = SimConfig(n_people=10**5, n_items=1, replications=1, seed=8)
        pop = draw_population(config, RngKey(8, (0,)))
        assert abs(pop.p_learn.mean() - 0.5) < 0.005


class TestRunExperiment:
    def test_single_pair_matches_exact_marginal(self):
        # One pair, many replications: the pooled proportion must approach
        # p_guess + (1 - p_slip - p_guess) * P(mastered at T) from a cold
        # start, at the binomial rate.
        reps = 10**5
        config = SimConfig(
            n_people=1, n_items=1, replications=reps, iteration_counts=(3,), seed=9
        )
        pop = draw_population(config, RngKey(9, (0,)))
        chain = BktParams(
            p_init=0.0,
            p_learn=float(pop.p_learn[0]),
            p_forget=float(pop.p_forget[0]),
            p_slip=config.p_slip,
            p_guess=config.p_guess,
        )
        exact = config.p_guess + (1.0 - config.p_slip - config.p_guess) * marginal_at(
            chain, 3
        )
        curve = run_equilibrium_experiment(config)[3]
        assert curve.n_obs.sum() == reps
        pooled = float((curve.prop_correct * curve.n_obs).sum() / reps)
        sigma = math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(pooled - exact) < 3 * sigma

    def test_noiseless_single_step_mean_equals_mean_learning_rate(self):
        config = SimConfig(
            n_people=150,
            n_items=8,
            replications=40,
            iteration_counts=(1,),
            p_slip=0.0,
            p_guess=0.0,
            seed=10,
        )
        curve = run_equilibrium_experiment(config)[1]
        pop = draw_population(config, RngKey(10, (0,)))
        total = curve.n_obs.sum()
        pooled = float((curve.prop_correct * curve.n_obs).sum() / total)
        expect = float(pop.p_learn.mean())
        sigma = math.sqrt(0.25 / total) + 0.5 / math.sqrt(config.n_people * 8 * 40)
        assert abs(pooled - expect) < 4 * sigma

    def test_deterministic_and_thread_invariant(self):
        config = SimConfig(
            n_people=23, n_items=7, replications=11, iteration_counts=(2, 4), seed=11
        )
        base = run_equilibrium_experiment(config, threads=1)
        again = run_equilibrium_experiment(config, threads=1)
        threaded = run_equilibrium_experiment(config, threads=4)
        for t in (2, 4):
            np.testing.assert_array_equal(base[t].bin_centers, again[t].bin_centers)
            np.testing.assert_array_equal(base[t].n_obs, again[t].n_obs)
            np.testing.assert_array_equal(base[t].prop_correct, again[t].prop_correct)
            np.testing.assert_array_equal(base[t].n_obs, threaded[t].n_obs)
            np.testing.assert_array_equal(base[t].prop_correct, threaded[t].prop_correct)

    def test_block_split_does_not_change_counts(self):
        # Each person draws from its own stream, so any partition of the
        # persons into blocks pools to the same integer counts.
        config = SimConfig(
            n_people=10, n_items=4, replications=9, iteration_counts=(1, 3, 4), seed=14
        )
        pop = draw_population(config)
        pair_bin, centers = _pair_bins(pop, config.bin_width)
        key = RngKey(config.seed)

        def pooled(splits):
            edges = [0, *splits, config.n_people]
            return sum(
                _simulate_person_block(
                    range(lo, hi), config, pop, key, [1, 3, 4], pair_bin, centers.size
                )
                for lo, hi in zip(edges, edges[1:])
            )

        whole = pooled([])
        for splits in ([1], [3, 4, 9], list(range(1, 10))):
            np.testing.assert_array_equal(pooled(splits), whole)

    def test_observation_budget_conserved(self):
        config = SimConfig(
            n_people=9, n_items=5, replications=6, iteration_counts=(2, 3), seed=12
        )
        curves = run_equilibrium_experiment(config)
        for curve in curves.values():
            assert curve.n_obs.sum() == 9 * 5 * 6
            assert np.all(np.diff(curve.bin_centers) > 0)
            assert np.all((curve.prop_correct >= 0) & (curve.prop_correct <= 1))


class TestExpectedCurves:
    CONFIG = SimConfig.desk(iteration_counts=(1, 2, 5, 50), seed=16)

    @pytest.fixture(scope="class")
    def runs(self):
        config = self.CONFIG
        curves = run_equilibrium_experiment(config)
        return curves, expected_curves(config, draw_population(config))

    def test_counts_match_exact_expectation(self, runs):
        curves, expected = runs
        p_values = _binomial_p_values(curves, expected)
        assert p_values.min() >= FAMILY_ALPHA / p_values.size

    def test_detects_a_one_step_bias(self, runs):
        # A kernel that ran one step short would be told apart from noise.
        curves, _ = runs
        config = SimConfig.desk(iteration_counts=(2, 3, 6), seed=16)
        shifted = expected_curves(config, draw_population(config))
        short = {t + 1: curves[t] for t in (1, 2, 5)}
        p_values = _binomial_p_values(short, shifted)
        assert p_values.min() < FAMILY_ALPHA / p_values.size

    def test_single_pair_closed_form(self):
        config = SimConfig(n_people=1, n_items=1, replications=5, iteration_counts=(4,), seed=17)
        pop = draw_population(config)
        chain = BktParams(
            p_init=0.0,
            p_learn=float(pop.p_learn[0]),
            p_forget=float(pop.p_forget[0]),
            p_slip=config.p_slip,
            p_guess=config.p_guess,
        )
        want = config.p_guess + (1.0 - config.p_slip - config.p_guess) * marginal_at(chain, 4)
        curve = expected_curves(config, pop)[4]
        assert curve.n_obs.tolist() == [5]
        assert abs(curve.prop_correct[0] - want) < 1e-12

    def test_summary_reports_deviation_from_expectation(self, runs):
        curves, expected = runs
        summary = summarize_curves(curves, self.CONFIG.irf(), 200, expected)
        for t, curve in curves.items():
            mask = curve.n_obs >= 200
            want = np.abs(curve.prop_correct - expected[t].prop_correct)[mask].max()
            assert summary["expected_max_abs_dev"][str(t)] == want
        assert "expected_max_abs_dev" not in summarize_curves(curves, self.CONFIG.irf(), 200)


class TestWorkAndThreads:
    def test_work_counts_match_the_draws_made(self, monkeypatch):
        config = SimConfig(
            n_people=6, n_items=4, replications=5, iteration_counts=(3, 1, 3), seed=18
        )
        seen = {"streams": 0, "uniforms": 0}
        original = RngKey.generator

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size):
                seen["uniforms"] += int(np.prod(size))
                return self.gen.random(size)

        def counting(key):
            seen["streams"] += 1
            return Counted(original(key))

        monkeypatch.setattr(RngKey, "generator", counting)
        run_equilibrium_experiment(config, threads=1)
        work = work_counts(config)
        assert work["pairs"] == 24
        assert work["keyed_streams"] == seen["streams"] == 7
        assert work["uniforms_drawn"] == seen["uniforms"] == 6 + 4 + 2 * 2 * 24 * 5

    @pytest.mark.parametrize(
        "requested,n_people,cpus,want",
        [
            (1, 1000, 2, 1),
            (2, 1000, 2, 2),
            (8, 1000, 2, 2),
            (10**6, 1000, 64, 64),
            (10**6, 3, 64, 3),
            (4, 1000, None, 1),
            (0, 1000, 8, 1),
        ],
    )
    def test_worker_count_is_capped(self, requested, n_people, cpus, want):
        assert worker_count(requested, n_people, cpus) == want


class TestCompareToIrf:
    def _exact_curve(self, item, t=50):
        centers = np.arange(-4.0, 4.25, 0.5)
        props = irf_4pl(centers, item)
        return BinnedCurve(
            iterations=t,
            bin_centers=centers,
            prop_correct=np.asarray(props),
            n_obs=np.full(centers.size, 500),
        )

    def test_exact_curve_has_zero_deviation(self):
        item = Irf4pl(a=1.0, b=0.0, c=0.1, d=0.9)
        max_abs, rmse = compare_to_irf(self._exact_curve(item), item)
        assert max_abs == 0.0 and rmse == 0.0

    def test_shift_translates_max_deviation(self):
        item = Irf4pl(a=1.0, b=0.0, c=0.1, d=0.9)
        curve = self._exact_curve(item)
        shifted = BinnedCurve(
            iterations=curve.iterations,
            bin_centers=curve.bin_centers,
            prop_correct=curve.prop_correct + 0.02,
            n_obs=curve.n_obs,
        )
        max_abs, _ = compare_to_irf(shifted, item)
        assert max_abs == pytest.approx(0.02, abs=1e-12)

    def test_min_count_filters_bins(self):
        item = Irf4pl(a=1.0, b=0.0, c=0.1, d=0.9)
        curve = self._exact_curve(item)
        with pytest.raises(InsufficientData):
            compare_to_irf(curve, item, min_count=10**6)


class TestCsvAndSummary:
    def test_csv_layout_and_summary(self, tmp_path):
        config = SimConfig(
            n_people=12, n_items=6, replications=8, iteration_counts=(1, 2), seed=13
        )
        curves = run_equilibrium_experiment(config)
        item = config.irf()
        path = tmp_path / "curves.csv"
        write_curves_csv(curves, item, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "bin_center,iterations,prop_correct,n_obs,irf_value"
        rows = [line.split(",") for line in lines[2:]]
        assert {row[1] for row in rows} == {"1", "2"}
        for row in rows:
            center, _, prop, n_obs, irf_value = row
            assert abs(float(irf_value) - irf_4pl(float(center), item)) < 1e-12
            assert 0.0 <= float(prop) <= 1.0 and int(n_obs) > 0

        summary = summarize_curves(curves, item, min_count=1)
        assert set(summary["max_abs_dev"]) == {"1", "2"}
        for t in (1, 2):
            want = compare_to_irf(curves[t], item, 1)
            assert summary["max_abs_dev"][str(t)] == want[0]
            assert summary["weighted_rmse"][str(t)] == want[1]
        assert json.dumps(summary)
