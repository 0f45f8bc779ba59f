"""Equilibrium maps: exactness, inverses, the classic limit, monotonicity,
and the geometric approach of the response marginals to the equilibrium."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bktirt import (
    BktParams,
    RngKey,
    bkt_to_irt,
    build_matrices,
    classic_limit,
    irt_to_bkt,
    logistic,
    marginal_at,
    sample_trajectory,
)
from bktirt.errors import NonErgodic, OutOfDomain


def _stationary_oracle(params):
    # Independent of the closed form: long matrix power applied to (1, 0).
    a, _ = build_matrices(params)
    return (np.linalg.matrix_power(a.T, 10**4) @ np.array([1.0, 0.0]))[1]


class TestBktToIrt:
    def test_log_rates_and_mixed_probability(self):
        params = BktParams(0.5, math.exp(-1), math.exp(-2), 0.1, 0.1)
        eq = bkt_to_irt(params)
        assert eq.theta == pytest.approx(-1.0, abs=1e-12)
        assert eq.b == pytest.approx(-2.0, abs=1e-12)
        want = 0.1 + 0.8 * _stationary_oracle(params)
        assert eq.p_correct == pytest.approx(want, abs=1e-10)
        assert eq.p_correct == pytest.approx(0.1 + 0.8 * logistic(1.0), abs=1e-12)

    def test_symmetric_noiseless_chain_is_half(self):
        eq = bkt_to_irt(BktParams(0.5, 0.3, 0.3, 0.0, 0.0))
        assert eq.p_correct == pytest.approx(0.5, abs=1e-15)

    def test_emission_mixing_against_stationary_oracle(self):
        params = BktParams(0.5, 0.3, 0.1, 0.1, 0.1)
        eq = bkt_to_irt(params)
        assert eq.p_correct == pytest.approx(0.1 + 0.8 * 0.75, abs=1e-12)
        assert eq.p_correct == pytest.approx(
            0.1 + 0.8 * _stationary_oracle(params), abs=1e-10
        )

    def test_logistic_identity_fuzzed(self):
        # Stationary mass pushed through the emissions equals the
        # discrimination-1 curve at theta - b, for every ergodic draw.
        rng = np.random.default_rng(44)
        for _ in range(2000):
            p_learn, p_forget = rng.uniform(1e-6, 1.0, size=2)
            p_slip, p_guess = rng.uniform(0.0, 1.0, size=2)
            eq = bkt_to_irt(BktParams(0.5, p_learn, p_forget, p_slip, p_guess))
            curve = eq.c + (eq.d - eq.c) * logistic(eq.theta - eq.b)
            assert abs(eq.p_correct - curve) < 1e-12

    def test_invariant_identity_recorded_on_result(self):
        eq = bkt_to_irt(BktParams(0.5, 0.2, 0.4, 0.15, 0.05))
        assert eq.theta <= 0.0 and eq.b <= 0.0
        assert eq.p_correct == pytest.approx(
            eq.c + (eq.d - eq.c) * logistic(eq.theta - eq.b), abs=1e-12
        )

    def test_nonergodic_rejected(self):
        with pytest.raises(NonErgodic):
            bkt_to_irt(BktParams(0.5, 0.0, 0.1, 0.1, 0.1))
        with pytest.raises(NonErgodic):
            bkt_to_irt(BktParams(0.5, 0.3, 0.0, 0.1, 0.1))

    def test_period_two_chain_rejected_and_decreasing_curve_mapped(self):
        # The period-2 chain's marginals never settle, so it has no
        # equilibrium curve.
        with pytest.raises(NonErgodic, match="period-2"):
            bkt_to_irt(BktParams(0.5, 1.0, 1.0, 0.0, 1.0))
        # A guess above 1 - slip gives a decreasing curve, which criterion 1
        # draws and the map keeps.
        eq = bkt_to_irt(BktParams(0.5, 0.3, 0.1, 0.5, 0.7))
        assert eq.c == 0.7 and eq.d == 0.5
        assert eq.p_correct == pytest.approx(0.7 - 0.2 * 0.75, abs=1e-12)

    def test_correct_probability_monotone_in_rates(self):
        # Learning helps, forgetting hurts, whenever 1 - p_slip > p_guess.
        rng = np.random.default_rng(45)
        for _ in range(500):
            p_learn, p_forget = rng.uniform(0.01, 0.98, size=2)
            p_guess = rng.uniform(0.0, 0.6)
            p_slip = rng.uniform(0.0, 1.0 - p_guess - 0.01)
            base = bkt_to_irt(BktParams(0.5, p_learn, p_forget, p_slip, p_guess))
            more_learn = bkt_to_irt(
                BktParams(0.5, min(1.0, p_learn + 0.01), p_forget, p_slip, p_guess)
            )
            more_forget = bkt_to_irt(
                BktParams(0.5, p_learn, min(1.0, p_forget + 0.01), p_slip, p_guess)
            )
            assert more_learn.p_correct > base.p_correct
            assert more_forget.p_correct < base.p_correct

    def test_p_init_does_not_enter_the_equilibrium(self):
        base = bkt_to_irt(BktParams(0.0, 0.2, 0.4, 0.15, 0.05))
        for p_init in (0.25, 0.5, 1.0):
            assert bkt_to_irt(BktParams(p_init, 0.2, 0.4, 0.15, 0.05)) == base

    def test_matched_rates_give_mean_of_asymptotes(self):
        # theta = b puts the curve at its midpoint, whatever the emissions.
        rng = np.random.default_rng(46)
        for _ in range(500):
            rate = rng.uniform(1e-6, 0.99)
            p_slip, p_guess = rng.uniform(0.0, 1.0, size=2)
            eq = bkt_to_irt(BktParams(0.5, rate, rate, p_slip, p_guess))
            assert eq.p_correct == pytest.approx((eq.c + eq.d) / 2.0, abs=1e-12)

    def test_noiseless_emissions_give_stationary_mass(self):
        rng = np.random.default_rng(48)
        for _ in range(500):
            p_learn, p_forget = rng.uniform(1e-6, 0.99, size=2)
            eq = bkt_to_irt(BktParams(0.5, p_learn, p_forget, 0.0, 0.0))
            assert eq.c == 0.0 and eq.d == 1.0
            assert eq.p_correct == pytest.approx(p_learn / (p_learn + p_forget), abs=1e-12)

    def test_equal_emissions_give_a_flat_curve(self):
        # p_guess = 1 - p_slip: both states answer alike, so no rate matters.
        for p_learn, p_forget in ((0.01, 0.9), (0.5, 0.5), (0.9, 0.01)):
            eq = bkt_to_irt(BktParams(0.5, p_learn, p_forget, 0.25, 0.75))
            assert eq.c == eq.d == 0.75
            assert eq.p_correct == pytest.approx(0.75, abs=1e-15)

    def test_swapped_rates_reflect_the_curve(self):
        # Swapping p_learn and p_forget negates theta - b, and
        # logistic(-z) = 1 - logistic(z) reflects p_correct about (c + d) / 2.
        rng = np.random.default_rng(49)
        for _ in range(500):
            p_learn, p_forget = rng.uniform(1e-6, 0.99, size=2)
            p_slip, p_guess = rng.uniform(0.0, 1.0, size=2)
            eq = bkt_to_irt(BktParams(0.5, p_learn, p_forget, p_slip, p_guess))
            swapped = bkt_to_irt(BktParams(0.5, p_forget, p_learn, p_slip, p_guess))
            assert eq.p_correct + swapped.p_correct == pytest.approx(eq.c + eq.d, abs=1e-12)


class TestIrtToBkt:
    def test_exponentials_invert_logs(self):
        rec = irt_to_bkt(-1.0, -2.0, 0.1, 0.9)
        assert isinstance(rec, BktParams)
        assert rec.p_learn == pytest.approx(math.exp(-1), abs=1e-15)
        assert rec.p_forget == pytest.approx(math.exp(-2), abs=1e-15)
        assert rec.p_guess == 0.1
        assert rec.p_slip == pytest.approx(0.1, abs=1e-15)
        assert rec.p_init == 0.5

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            p_learn, p_forget = rng.uniform(1e-6, 1.0, size=2)
            p_guess = rng.uniform(0.0, 0.5)
            p_slip = rng.uniform(0.0, 0.5 - 1e-9)
            params = BktParams(0.5, p_learn, p_forget, p_slip, p_guess)
            eq = bkt_to_irt(params)
            back = irt_to_bkt(eq.theta, eq.b, eq.c, eq.d)
            assert abs(back.p_learn - p_learn) < 1e-15
            assert abs(back.p_forget - p_forget) < 1e-15
            assert abs(back.p_slip - p_slip) < 1e-15
            assert back.p_guess == p_guess

    def test_positive_theta_rejected(self):
        with pytest.raises(OutOfDomain):
            irt_to_bkt(0.5, -1.0, 0.1, 0.9)
        with pytest.raises(OutOfDomain):
            irt_to_bkt(-0.5, 0.25, 0.1, 0.9)


class TestClassicLimit:
    def test_limit_is_one_minus_slip(self):
        assert classic_limit(BktParams(0.1, 0.3, 0.0, 0.1, 0.2)) == pytest.approx(0.9)
        assert classic_limit(BktParams(0.1, 0.3, 0.0, 0.0, 0.2)) == 1.0

    def test_monte_carlo_tail_frequency(self):
        params = BktParams(0.0, 0.25, 0.0, 0.1, 0.2)
        trajectory = sample_trajectory(params, 10**5, RngKey(314))
        tail = trajectory.emitted[1000:]
        sigma = math.sqrt(0.1 * 0.9 / tail.size)
        assert abs(tail.mean() - classic_limit(params)) < 3 * sigma

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            classic_limit(BktParams(0.1, 0.3, 0.2, 0.1, 0.2))
        with pytest.raises(ValueError):
            classic_limit(BktParams(0.1, 0.0, 0.0, 0.1, 0.2))


def _response_gap(params, t):
    """|P(correct at attempt t) - equilibrium P(correct)|, from the exact
    mastered marginal pushed through the emissions."""
    d = 1.0 - params.p_slip
    p_t = params.p_guess + (d - params.p_guess) * marginal_at(params, t)
    return abs(p_t - bkt_to_irt(params).p_correct)


class TestApproachToEquilibrium:
    """The response marginal reaches the equilibrium curve geometrically:
    gap(t) = |1 - p_slip - p_guess| * |1 - p_learn - p_forget|^t
    * |p_init - lambda1|."""

    def test_started_at_equilibrium_gap_zero(self):
        params = BktParams(0.75, 0.3, 0.1, 0.1, 0.1)
        for t in (0, 1, 5):
            assert _response_gap(params, t) == pytest.approx(0.0, abs=1e-15)

    def test_one_step_mixing_zero_for_all_t(self):
        params = BktParams(0.1, 0.6, 0.4, 0.1, 0.1)
        for t in range(1, 8):
            assert _response_gap(params, t) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        params = BktParams(0.0, 0.3, 0.1, 0.1, 0.1)
        assert _response_gap(params, 5) == pytest.approx(0.8 * 0.6**5 * 0.75, abs=1e-12)

    def test_matches_closed_form_fuzzed(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            p_learn, p_forget = rng.uniform(0.02, 0.98, size=2)
            p_init = rng.random()
            p_guess = rng.uniform(0, 0.5)
            p_slip = rng.uniform(0, 0.5)
            params = BktParams(p_init, p_learn, p_forget, p_slip, p_guess)
            lam1 = p_learn / (p_learn + p_forget)
            rate = abs(1.0 - p_learn - p_forget)
            for t in (0, 1, 3, 10, 50):
                want = abs(1.0 - p_slip - p_guess) * rate**t * abs(p_init - lam1)
                assert abs(_response_gap(params, t) - want) < 1e-12

    def test_gap_ratio_equals_inverse_rate(self):
        params = BktParams(0.0, 0.3, 0.2, 0.05, 0.1)
        rate = abs(1.0 - 0.3 - 0.2)
        for t in range(6):
            ratio = _response_gap(params, t) / _response_gap(params, t + 1)
            assert ratio == pytest.approx(1.0 / rate, rel=1e-9)

    def test_gap_never_grows(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            p_learn, p_forget = rng.uniform(1e-3, 1.0, size=2)
            if p_learn + p_forget == 2.0:
                continue
            params = BktParams(rng.random(), p_learn, p_forget, *rng.uniform(0, 1, size=2))
            gaps = [_response_gap(params, t) for t in range(30)]
            assert all(later <= earlier + 1e-15 for earlier, later in zip(gaps, gaps[1:]))
