"""Chain machinery against independent matrix-power and frequency oracles."""

from __future__ import annotations

import numpy as np
import pytest

import bktirt.chain as chain_mod
from bktirt import (
    BktParams,
    RngKey,
    Trajectory,
    build_matrices,
    marginal_at,
    mastered_after,
    sample_trajectory,
    stationary_closed_form,
    stationary_power_iteration,
)
from bktirt.errors import OutOfRange, Reducible


def _params(p_learn, p_forget, p_init=0.0, p_slip=0.0, p_guess=0.0):
    return BktParams(p_init, p_learn, p_forget, p_slip, p_guess)


class TestBuildMatrices:
    def test_transition_transcription(self):
        a, _ = build_matrices(_params(0.3, 0.1))
        np.testing.assert_allclose(a, [[0.7, 0.3], [0.1, 0.9]])

    def test_emission_transcription(self):
        _, b = build_matrices(_params(0.3, 0.1, p_slip=0.1, p_guess=0.2))
        np.testing.assert_allclose(b, [[0.8, 0.2], [0.1, 0.9]])

    def test_absorbing_both_states_gives_identity(self):
        a, _ = build_matrices(_params(0.0, 0.0))
        np.testing.assert_allclose(a, np.eye(2))

    def test_rows_stochastic_for_fuzzed_params(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            a, b = build_matrices(BktParams(*rng.random(5)))
            np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((a >= 0) & (a <= 1)) and np.all((b >= 0) & (b <= 1))


class TestStationary:
    def test_closed_form_matches_independent_matrix_power(self):
        # Oracle: push (1, 0) through (A^T)^10000 with numpy's matrix power.
        params = _params(0.3, 0.1)
        a, _ = build_matrices(params)
        oracle = np.linalg.matrix_power(a.T, 10**4) @ np.array([1.0, 0.0])
        dist = stationary_closed_form(params)
        np.testing.assert_allclose(dist.as_array(), oracle, atol=1e-12)
        np.testing.assert_allclose(dist.as_array(), [0.25, 0.75], atol=1e-12)

    def test_symmetric_rates_give_half(self):
        dist = stationary_closed_form(_params(0.4, 0.4))
        assert dist.lambda0 == dist.lambda1 == 0.5

    def test_reducible_chain_rejected(self):
        with pytest.raises(Reducible):
            stationary_closed_form(_params(0.0, 0.0))

    def test_periodic_flag_at_sum_two(self):
        dist = stationary_closed_form(_params(1.0, 1.0))
        assert dist.periodic
        assert dist.lambda0 == dist.lambda1 == 0.5

    def test_fixed_point_identity_fuzzed(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            p_learn, p_forget = rng.uniform(1e-3, 1.0, size=2)
            params = _params(p_learn, p_forget)
            a, _ = build_matrices(params)
            lam = stationary_closed_form(params).as_array()
            np.testing.assert_allclose(a.T @ lam, lam, atol=1e-10)
            assert abs(lam.sum() - 1.0) < 1e-12 and np.all(lam >= 0)


class TestPowerIterationOracle:
    def test_agrees_with_closed_form_when_contracting(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p_learn, p_forget = rng.uniform(0.02, 0.98, size=2)
            params = _params(p_learn, p_forget)
            a, _ = build_matrices(params)
            got = stationary_power_iteration(a)
            want = stationary_closed_form(params)
            assert not got.periodic
            np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-10)

    def test_detects_period_two_oscillation(self):
        a, _ = build_matrices(_params(1.0, 1.0))
        got = stationary_power_iteration(a)
        assert got.periodic
        np.testing.assert_allclose(got.as_array(), [0.5, 0.5], atol=1e-12)


class TestMarginal:
    def test_t_zero_returns_initial_probability(self):
        assert marginal_at(_params(0.3, 0.1, p_init=0.2), 0) == 0.2

    def test_one_step_mixing_collapses_to_stationary(self):
        assert marginal_at(_params(0.5, 0.5, p_init=0.0), 1) == 0.5

    def test_two_step_value_matches_matrix_power_oracle(self):
        params = _params(0.3, 0.1, p_init=0.0)
        a, _ = build_matrices(params)
        # Oracle: explicit repeated vector-matrix multiplication.
        vec = np.array([1.0, 0.0])
        for _ in range(2):
            vec = a.T @ vec
        assert abs(marginal_at(params, 2) - vec[1]) < 1e-15
        assert abs(marginal_at(params, 2) - 0.48) < 1e-12

    def test_matches_matrix_power_at_many_horizons(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            params = BktParams(rng.random(), *rng.random(2), 0.0, 0.0)
            a, _ = build_matrices(params)
            vec = np.array([1.0 - params.p_init, params.p_init])
            for t in range(40):
                assert abs(marginal_at(params, t) - vec[1]) < 1e-12
                vec = a.T @ vec

    def test_geometric_convergence_rate(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            p_learn, p_forget = rng.uniform(0.01, 0.99, size=2)
            p_init = rng.random()
            params = _params(p_learn, p_forget, p_init=p_init)
            lam1 = stationary_closed_form(params).lambda1
            rate = abs(1.0 - p_learn - p_forget)
            for t in (0, 1, 5, 20, 100, 200):
                gap = abs(marginal_at(params, t) - lam1)
                assert abs(gap - rate**t * abs(p_init - lam1)) < 1e-10

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            marginal_at(_params(0.3, 0.1), -1)


class TestMasteredAfter:
    """The closed-form multi-step law against rows of matrix powers."""

    CASES = [
        (0.3, 0.1),
        (0.9, 0.8),  # p_learn + p_forget > 1: r < 0, the law oscillates
        (1.0 - 1e-12, 1.0 - 1e-12),  # r near -1
        (1e-12, 1e-12),  # r near 1
        (1e-12, 1.0 - 1e-12),
        (1.0 - 1e-12, 1e-12),
    ]

    @pytest.mark.parametrize("p_learn,p_forget", CASES)
    @pytest.mark.parametrize("steps", [1, 2, 3, 45])
    def test_matches_matrix_power_rows(self, p_learn, p_forget, steps):
        a, _ = build_matrices(_params(p_learn, p_forget))
        power = np.linalg.matrix_power(a, steps)
        for z in (0, 1):
            got = mastered_after(p_learn, p_forget, z, steps)
            assert abs(got - power[z, 1]) < 1e-12

    def test_broadcasts_over_rate_arrays(self):
        rng = np.random.default_rng(92)
        p_learn = rng.random(5)[:, None]
        p_forget = rng.random(4)[None, :]
        got = mastered_after(p_learn, p_forget, np.array([[0, 1, 1, 0]]), 3)
        assert got.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                a, _ = build_matrices(_params(p_learn[i, 0], p_forget[0, j]))
                row = (0, 1, 1, 0)[j]
                want = np.linalg.matrix_power(a, 3)[row, 1]
                assert abs(got[i, j] - want) < 1e-12


class TestTrajectory:
    def test_identical_keys_identical_paths(self):
        params = BktParams(0.4, 0.3, 0.1, 0.1, 0.2)
        one = sample_trajectory(params, 500, RngKey(123, (4,)))
        two = sample_trajectory(params, 500, RngKey(123, (4,)))
        np.testing.assert_array_equal(one.latent, two.latent)
        np.testing.assert_array_equal(one.emitted, two.emitted)
        assert one.key == RngKey(123, (4,))

    def test_distinct_paths_differ(self):
        params = BktParams(0.4, 0.3, 0.1, 0.1, 0.2)
        one = sample_trajectory(params, 500, RngKey(123, (4,)))
        other = sample_trajectory(params, 500, RngKey(123, (5,)))
        assert not np.array_equal(one.emitted, other.emitted)

    def test_certain_mastery_no_slip_emits_all_correct(self):
        params = BktParams(1.0, 0.7, 0.0, 0.0, 0.3)
        trajectory = sample_trajectory(params, 200, RngKey(9))
        assert np.all(trajectory.latent == 1)
        assert np.all(trajectory.emitted == 1)

    def test_never_learns_never_guesses_emits_all_wrong(self):
        params = BktParams(0.0, 0.0, 0.0, 0.4, 0.0)
        trajectory = sample_trajectory(params, 200, RngKey(9))
        assert np.all(trajectory.latent == 0)
        assert np.all(trajectory.emitted == 0)

    def test_long_run_latent_frequency_matches_stationary(self):
        params = BktParams(0.0, 0.3, 0.1, 0.1, 0.1)
        trajectory = sample_trajectory(params, 10**6, RngKey(77))
        tail = trajectory.latent[1000:]
        assert abs(tail.mean() - 0.75) < 0.005

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            sample_trajectory(BktParams(0.2, 0.3, 0.1, 0.1, 0.1), 0, RngKey(1))

    def test_a_mastery_chain_carries_no_state_index(self):
        trajectory = sample_trajectory(BktParams(0.2, 0.3, 0.1, 0.1, 0.1), 50, RngKey(1))
        assert trajectory.states is None

    def test_flip_rate_compares_rows_across_blocks(self, monkeypatch):
        # Blocks of 3 rows: every block border must still compare the rows
        # on either side of it.
        latent = np.array([[1, 0], [1, 1], [0, 1], [0, 1], [1, 0], [1, 0], [0, 0]], np.uint8)
        trajectory = Trajectory(latent, latent, RngKey(0))
        flips = 1 + 1 + 1 + 0 + 2 + 0 + 1
        assert trajectory.flip_rate() == flips / latent.size
        monkeypatch.setattr(chain_mod, "_FLIP_BLOCK", 3)
        assert trajectory.flip_rate() == flips / latent.size

    def test_states_must_match_the_rows(self):
        latent = np.zeros((4, 2), np.uint8)
        with pytest.raises(OutOfRange, match="states"):
            Trajectory(latent, latent, RngKey(0), states=np.zeros(3, np.uint8))
