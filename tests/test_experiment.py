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
    irf_4pl,
    marginal_at,
    run_equilibrium_experiment,
)
from bktirt.cli import write_curves_csv
from bktirt.errors import InsufficientData, OutOfRange
from bktirt.experiment import Population, summarize_curves, work_counts

# Family-wise false-alarm probability of the per-bin binomial tests against
# the exact expectation; Bonferroni-split over every (step count, bin) cell.
FAMILY_ALPHA = 1e-3


def _binomial_p_values(curves, expected):
    """Exact two-sided binomial p-value of every (step count, bin) cell of
    ``curves`` against the exact expectation that the ``expected`` curves
    carry at the same step count.

    A bin's correct count is a sum of independent Bernoulli draws whose
    means average to the expected proportion; its tails are no heavier than
    the binomial's at that mean (Hoeffding 1956), so the test is valid.
    """
    p_values = []
    for t, curve in curves.items():
        np.testing.assert_array_equal(curve.bin_centers, expected[t].bin_centers)
        np.testing.assert_array_equal(curve.n_obs, expected[t].n_obs)
        for prop, n, p in zip(curve.prop_correct, curve.n_obs, expected[t].expected):
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
        with pytest.raises(OutOfRange, match=r"iteration_counts entries must be <= 2\^53"):
            SimConfig(iteration_counts=(2, 2**53 + 1))
        assert SimConfig(iteration_counts=(2**53,)).iteration_counts == (2**53,)
        with pytest.raises(OutOfRange):
            SimConfig(bin_width=0.0)
        with pytest.raises(OutOfRange, match="finite"):
            SimConfig(bin_width=math.inf)
        # 8 / w overflows to inf below about 4.4e-308.
        for width in (1e-300, 1e-320, 5e-324, 8.0 / 2**19):
            with pytest.raises(OutOfRange, match="more than 1048576 bins"):
                SimConfig(bin_width=width)
        # The finest grid allowed: 2 * floor(8 / w) + 1 = 2^20 - 1 bins.
        finest = math.nextafter(8.0 / 2**19, 1.0)
        assert SimConfig(bin_width=finest).bin_width == finest
        assert SimConfig(bin_width=1e-4).bin_width == 1e-4
        with pytest.raises(OutOfRange):
            SimConfig(p_slip=1.5)

    def test_counts_are_integers_numpy_ones_included(self):
        config = SimConfig.desk(n_people=np.int64(3), iteration_counts=(np.int32(2),))
        assert (config.n_people, config.iteration_counts) == (3, (2,))
        assert type(config.n_people) is type(config.iteration_counts[0]) is int
        # As numpy integers, 2^32 * 2^32 would wrap to 0 and pass the cap.
        with pytest.raises(OutOfRange, match=r"must be <= 2\^53"):
            SimConfig(n_people=np.int64(2**32), n_items=np.int64(2**32), replications=1)
        with pytest.raises(OutOfRange, match="n_people must be an integer, got True"):
            SimConfig.desk(n_people=True)
        with pytest.raises(OutOfRange, match="iteration_counts must be an integer, got 2.5"):
            SimConfig.desk(iteration_counts=(2, 2.5))

    def test_observation_count_capped_at_two_to_the_53(self):
        # Up to 2^53 observations every count is exact as a float64 bincount
        # weight and as an int64 total; building the config allocates nothing.
        assert SimConfig(n_people=2**26, n_items=2**27, replications=1).n_people == 2**26
        with pytest.raises(OutOfRange, match=r"must be <= 2\^53"):
            SimConfig(n_people=2**26, n_items=2**27, replications=2)
        with pytest.raises(OutOfRange, match=r"must be <= 2\^53"):
            SimConfig(replications=10**20)

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

    def test_deterministic(self):
        config = SimConfig(
            n_people=23, n_items=7, replications=11, iteration_counts=(2, 4), seed=11
        )
        base = run_equilibrium_experiment(config)
        again = run_equilibrium_experiment(config)
        for t in (2, 4):
            np.testing.assert_array_equal(base[t].bin_centers, again[t].bin_centers)
            np.testing.assert_array_equal(base[t].n_obs, again[t].n_obs)
            np.testing.assert_array_equal(base[t].prop_correct, again[t].prop_correct)

    def test_block_size_does_not_change_curves(self, monkeypatch, tmp_path):
        # The stay and gain streams are consumed in (checkpoint, person, item)
        # order and the slip and guess streams in (checkpoint, bin) order,
        # whatever the person blocks, so every block size writes the same bytes.
        # With 4 items, 1 and 3 pairs give one person per block, and 12 gives
        # three persons per block with a short last block.
        config = SimConfig(
            n_people=10, n_items=4, replications=9, iteration_counts=(1, 3, 4), seed=14
        )

        def written(block_pairs):
            monkeypatch.setattr("bktirt.experiment._BLOCK_PAIRS", block_pairs)
            path = tmp_path / f"{block_pairs}.csv"
            write_curves_csv(run_equilibrium_experiment(config), config.irf(), str(path))
            return path.read_bytes()

        whole = written(10**6)
        for block_pairs in (1, 3, 12):
            assert written(block_pairs) == whole

    def test_checkpoint_counts_covary_as_one_chain(self, monkeypatch):
        # One pair with fixed rates, rerun under many seeds. Its correct
        # counts at two checkpoints come from the same replicated chains, so
        # Cov(C_j, C_k) = R (1 - s - g)^2 m_j (stay - m_k), with m_t the
        # mastered mass at t and stay = P(mastered after t_k - t_j steps |
        # mastered); each count alone is Binomial(R, g + (1 - s - g) m_t).
        # A sampler that drew each checkpoint afresh would give Cov = 0.
        learn, forget, reps, checkpoints, seeds = 0.1, 0.05, 50, (2, 5), 1000
        population = Population(
            p_learn=np.array([learn]),
            p_forget=np.array([forget]),
            theta=np.log([learn]),
            b=np.log([forget]),
        )
        monkeypatch.setattr(
            "bktirt.experiment.draw_population", lambda config, key=None: population
        )
        counts = np.empty((seeds, 2))
        for seed in range(seeds):
            config = SimConfig(
                n_people=1, n_items=1, replications=reps,
                iteration_counts=checkpoints, seed=seed,
            )
            curves = run_equilibrium_experiment(config)
            counts[seed] = [curves[t].prop_correct[0] * reps for t in checkpoints]

        spread = 1.0 - config.p_slip - config.p_guess
        lam1, r = learn / (learn + forget), 1.0 - learn - forget
        mastered = [lam1 * (1.0 - r**t) for t in checkpoints]
        stay = lam1 + (1.0 - lam1) * r ** (checkpoints[1] - checkpoints[0])
        p = [config.p_guess + spread * m for m in mastered]
        dev = counts - reps * np.array(p)
        moments = {
            (0, 0): reps * p[0] * (1.0 - p[0]),
            (1, 1): reps * p[1] * (1.0 - p[1]),
            (0, 1): reps * spread**2 * mastered[0] * (stay - mastered[1]),
        }
        for (j, k), want in moments.items():
            products = dev[:, j] * dev[:, k]
            z = (products.mean() - want) / (products.std(ddof=1) / math.sqrt(seeds))
            assert abs(z) < 4.5, ((j, k), products.mean(), want, z)

    def test_bin_count_sums_independent_pairs(self, monkeypatch):
        # One bin holding four pairs with different fixed rates, rerun under
        # many seeds. Each pair's count is Binomial(R, p_pair) and the pairs
        # are independent, so the bin's count has mean sum R p_pair and
        # variance sum R p_pair (1 - p_pair). That is below the pooled
        # Binomial(4 R, mean p_pair) variance by R sum (p_pair - mean)^2, so a
        # sampler that pooled the pairs before the mastered chain would fail.
        learn, forget, reps, checkpoints, seeds = [0.6, 0.02], [0.01, 0.3], 50, (2, 5), 1000
        population = Population(
            p_learn=np.array(learn),
            p_forget=np.array(forget),
            theta=np.log(learn),
            b=np.log(forget),
        )
        monkeypatch.setattr(
            "bktirt.experiment.draw_population", lambda config, key=None: population
        )
        counts = np.empty((seeds, 2))
        for seed in range(seeds):
            # Width 16 makes a one-bin grid, so every pair shares it.
            config = SimConfig(
                n_people=2, n_items=2, replications=reps,
                iteration_counts=checkpoints, seed=seed, bin_width=16.0,
            )
            curves = run_equilibrium_experiment(config)
            assert [curves[t].n_obs.tolist() for t in checkpoints] == [[4 * reps]] * 2
            counts[seed] = [curves[t].prop_correct[0] * 4 * reps for t in checkpoints]

        spread = 1.0 - config.p_slip - config.p_guess
        l, f = np.array(learn)[:, None], np.array(forget)[None, :]
        lam1, r = l / (l + f), 1.0 - l - f

        def z_score(values, want):
            return (values.mean() - want) / (values.std(ddof=1) / math.sqrt(seeds))

        for j, t in enumerate(checkpoints):
            p = (config.p_guess + spread * lam1 * (1.0 - r**t)).ravel()
            mean = reps * p.sum()
            var = reps * np.sum(p * (1.0 - p))
            pooled = 4 * reps * p.mean() * (1.0 - p.mean())
            squares = (counts[:, j] - mean) ** 2
            assert abs(z_score(counts[:, j], mean)) < 4.5, (t, counts[:, j].mean(), mean)
            assert abs(z_score(squares, var)) < 4.5, (t, squares.mean(), var)
            assert abs(z_score(squares, pooled)) > 4.5, (t, squares.mean(), pooled)

    def test_full_scale_fifty_steps_within_sharpened_bound(self):
        # The default 1000 x 100 x 1000 run: within 0.02 of the equilibrium
        # curve at 50 steps (the desk gate is 0.05), approached monotonically.
        config = SimConfig()
        curves = run_equilibrium_experiment(config)
        dev = {t: compare_to_irf(curves[t], config.irf(), min_count=200)[0] for t in (2, 5, 50)}
        assert dev[50] <= 0.02
        assert dev[2] > dev[5] > dev[50]

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
    def curves(self):
        return run_equilibrium_experiment(self.CONFIG)

    def test_counts_match_exact_expectation(self, curves):
        p_values = _binomial_p_values(curves, curves)
        assert p_values.min() >= FAMILY_ALPHA / p_values.size

    def test_detects_a_one_step_bias(self, curves):
        # A kernel that ran one step short would be told apart from noise.
        # The shifted run has the same population, so the same bins.
        config = SimConfig.desk(iteration_counts=(2, 3, 6), seed=16)
        shifted = run_equilibrium_experiment(config)
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
        curve = run_equilibrium_experiment(config)[4]
        assert curve.n_obs.tolist() == [5]
        assert abs(curve.expected[0] - want) < 1e-12

    def test_summary_reports_deviation_from_expectation(self, curves):
        summary = summarize_curves(curves, self.CONFIG.irf(), 200)
        for t, curve in curves.items():
            mask = curve.n_obs >= 200
            want = np.abs(curve.prop_correct - curve.expected)[mask].max()
            assert summary["expected_max_abs_dev"][str(t)] == want


class TestWorkCounts:
    def test_work_counts_match_the_draws_made(self, monkeypatch):
        config = SimConfig(
            n_people=6, n_items=4, replications=5, iteration_counts=(3, 1, 3), seed=18
        )
        seen = {"streams": 0, "binomials": 0}
        original = RngKey.generator

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size):
                return self.gen.random(size)

            def binomial(self, n, p):
                draws = self.gen.binomial(n, p)
                seen["binomials"] += draws.size
                return draws

        def counting(key):
            seen["streams"] += 1
            return Counted(original(key))

        monkeypatch.setattr(RngKey, "generator", counting)
        curves = run_equilibrium_experiment(config)
        work = work_counts(config, curves)
        assert work["pairs"] == 24
        assert work["keyed_streams"] == seen["streams"] == 5
        # Stay and gain per pair, slip and guess per occupied bin, at each
        # of the two checkpoints.
        bins = [curve.n_obs.size for curve in curves.values()]
        assert bins == [10, 10]
        assert work["binomial_draws"] == seen["binomials"] == 2 * (24 + 10) * 2
        assert "uniforms_drawn" not in work


class TestCompareToIrf:
    def _exact_curve(self, item, t=50):
        centers = np.arange(-4.0, 4.25, 0.5)
        props = irf_4pl(centers, item)
        return BinnedCurve(
            iterations=t,
            bin_centers=centers,
            prop_correct=np.asarray(props),
            expected=np.asarray(props),
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
            expected=curve.expected,
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

        summary = summarize_curves(curves, item, 1)
        # The CLI adds format_version when it writes the file.
        assert list(summary) == ["min_count", "max_abs_dev", "weighted_rmse",
                                 "expected_max_abs_dev"]
        assert set(summary["max_abs_dev"]) == {"1", "2"}
        for t in (1, 2):
            want = compare_to_irf(curves[t], item, 1)
            assert summary["max_abs_dev"][str(t)] == want[0]
            assert summary["weighted_rmse"][str(t)] == want[1]
        assert json.dumps(summary)
