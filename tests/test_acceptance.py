"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured statistic (run with -s to see them live).

Monte Carlo criteria run under fixed seeds, so every check here is
deterministic and its stated tolerance is pinned, not calibrated.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from bktirt import (
    BktParams,
    Irf4pl,
    ResponsePanel,
    RngKey,
    SimConfig,
    bkt_to_irt,
    boltzmann_exact,
    build_matrices,
    classic_limit,
    compare_to_irf,
    empirical_state_frequencies,
    fit_baum_welch,
    fit_irf_cd,
    forward_filter,
    irf_4pl,
    irf_slope_max,
    logistic,
    marginal_at,
    run_equilibrium_experiment,
    sample_trajectory,
    simulate_field,
    stationary_closed_form,
    stationary_power_iteration,
)
from bktirt.ising import IsingNetwork


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def desk_curves():
    """Shared desk-scale run for criteria 4 and 5 (fixed default seed)."""
    config = SimConfig.desk()
    started = time.time()
    curves = run_equilibrium_experiment(config)
    return config, curves, time.time() - started


def test_criterion_1_bridge_identity():
    started = time.time()
    rng = np.random.default_rng(101)
    n = 10**4
    p_learn = rng.uniform(1e-6, 1.0, size=n)
    p_forget = rng.uniform(1e-6, 1.0, size=n)
    p_slip = rng.uniform(0.0, 1.0, size=n)
    p_guess = rng.uniform(0.0, 1.0, size=n)
    lam1 = p_learn / (p_learn + p_forget)
    mixed = p_guess + ((1.0 - p_slip) - p_guess) * lam1
    curve = p_guess + ((1.0 - p_slip) - p_guess) * logistic(
        np.log(p_learn) - np.log(p_forget)
    )
    worst = float(np.max(np.abs(mixed - curve)))
    # Spot-check the same identity through the public map on a subsample.
    for i in range(0, n, 500):
        eq = bkt_to_irt(
            BktParams(0.5, p_learn[i], p_forget[i], p_slip[i], p_guess[i])
        )
        alt = eq.c + (eq.d - eq.c) * logistic(eq.theta - eq.b)
        worst = max(worst, abs(eq.p_correct - alt))
    elapsed = time.time() - started
    _report(
        1,
        "bridge-identity",
        worst <= 1e-12 and elapsed < 1.0,
        f"max dev {worst:.2e} over {n} draws, {elapsed:.2f}s",
    )


def test_criterion_2_stationary_oracle():
    started = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10**4):
        p_learn, p_forget = rng.uniform(0.01, 0.99, size=2)
        params = BktParams(0.0, p_learn, p_forget, 0.0, 0.0)
        transition, _ = build_matrices(params)
        got = stationary_power_iteration(transition)
        want = stationary_closed_form(params)
        assert not got.periodic
        worst = max(
            worst, abs(got.lambda0 - want.lambda0), abs(got.lambda1 - want.lambda1)
        )
    elapsed = time.time() - started
    _report(
        2,
        "stationary-closed-form-vs-power-iteration",
        worst <= 1e-10 and elapsed < 5.0,
        f"max dev {worst:.2e} over 10^4 draws, {elapsed:.2f}s",
    )


def test_criterion_3_geometric_convergence():
    started = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(60):
        p_learn, p_forget = rng.uniform(0.01, 0.99, size=2)
        p_init = rng.random()
        params = BktParams(p_init, p_learn, p_forget, 0.0, 0.0)
        lam1 = stationary_closed_form(params).lambda1
        rate = abs(1.0 - p_learn - p_forget)
        for t in range(201):
            gap = abs(marginal_at(params, t) - lam1)
            worst = max(worst, abs(gap - rate**t * abs(p_init - lam1)))
    elapsed = time.time() - started
    _report(
        3,
        "geometric-convergence",
        worst <= 1e-10 and elapsed < 1.0,
        f"max dev {worst:.2e} for t in [0, 200], {elapsed:.2f}s",
    )


def test_criterion_4_desk_simulation(desk_curves):
    config, curves, elapsed = desk_curves
    item = config.irf()
    deviations = {
        t: compare_to_irf(curves[t], item, min_count=200)[0] for t in (2, 5, 50)
    }
    ok = (
        deviations[50] <= 0.05
        and deviations[2] > deviations[5] > deviations[50]
        and elapsed < 60.0
    )
    _report(
        4,
        "desk-scale-simulation",
        ok,
        f"max_abs_dev 2/5/50 = {deviations[2]:.4f}/{deviations[5]:.4f}/"
        f"{deviations[50]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_asymptote_recovery(desk_curves):
    config, curves, _ = desk_curves
    started = time.time()
    curve = curves[50]
    bins = [
        (float(x), float(p), float(n))
        for x, p, n in zip(curve.bin_centers, curve.prop_correct, curve.n_obs)
    ]
    c, d, _ = fit_irf_cd(bins, a_fixed=1.0)
    elapsed = time.time() - started
    ok = 0.05 <= c <= 0.15 and 0.85 <= d <= 0.95 and elapsed < 1.0
    _report(
        5,
        "asymptote-fit-recovery",
        ok,
        f"c={c:.4f} in [0.05, 0.15], d={d:.4f} in [0.85, 0.95], {elapsed:.2f}s",
    )


def test_criterion_6_classic_limit():
    started = time.time()
    params = BktParams(0.0, 0.25, 0.0, 0.1, 0.2)
    trajectory = sample_trajectory(params, 10**5, RngKey(314, (6,)))
    tail = trajectory.emitted[1000:]
    want = classic_limit(params)
    sigma = math.sqrt(want * (1.0 - want) / tail.size)
    deviation = abs(float(tail.mean()) - want)
    elapsed = time.time() - started
    _report(
        6,
        "classic-limit-frequency",
        deviation <= 3 * sigma and elapsed < 1.0,
        f"|freq - {want}| = {deviation:.5f} vs 3 sigma = {3 * sigma:.5f}, "
        f"{elapsed:.2f}s",
    )


def _simulated_panel(truth: BktParams, n_seq: int, length: int, key: RngKey):
    records = []
    for n in range(n_seq):
        emitted = sample_trajectory(truth, length, key.child(n)).emitted
        records.extend((n, 0, 7, t + 1, int(x)) for t, x in enumerate(emitted))
    return ResponsePanel(records)


def test_criterion_7_em_properties():
    started = time.time()
    # Monotone trace over 100 fuzzed starting points.
    truth = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
    fuzz_panel = _simulated_panel(truth, 40, 12, RngKey(107, (0,)))
    rng = np.random.default_rng(107)
    monotone = True
    for _ in range(100):
        init = BktParams(*rng.uniform(0.05, 0.45, size=5))
        trace = np.array(fit_baum_welch(fuzz_panel, 7, init, max_iters=50).loglik_trace)
        monotone = monotone and bool(np.all(np.diff(trace) >= -1e-9))

    # Recovery within +-0.05 per component on 10 seeded datasets.
    init = BktParams(0.4, 0.15, 0.0, 0.2, 0.3)
    worst = 0.0
    for seed in range(10):
        panel = _simulated_panel(truth, 500, 20, RngKey(1000 + seed))
        report = fit_baum_welch(panel, 7, init, classic=True, identified=True)
        for name in ("p_init", "p_learn", "p_forget", "p_slip", "p_guess"):
            worst = max(
                worst, abs(getattr(report.params, name) - getattr(truth, name))
            )
    elapsed = time.time() - started
    _report(
        7,
        "em-monotonicity-and-recovery",
        monotone and worst <= 0.05 and elapsed < 120.0,
        f"trace monotone={monotone}, worst component error {worst:.4f}, "
        f"{elapsed:.1f}s",
    )


def _loglik_bruteforce_all(params: BktParams, length: int) -> np.ndarray:
    """Log-likelihood of every response sequence of the given length by
    summing over all 2^T latent paths (vectorized full enumeration)."""
    transition, emission = build_matrices(params)
    init = np.array([1.0 - params.p_init, params.p_init])
    paths = ((np.arange(2**length)[:, None] >> np.arange(length)) & 1).astype(int)
    path_prob = init[paths[:, 0]]
    for t in range(1, length):
        path_prob = path_prob * transition[paths[:, t - 1], paths[:, t]]
    sequences = paths  # responses enumerate the same way as latent paths
    emit_prob = np.ones((2**length, 2**length))
    for t in range(length):
        emit_prob *= emission[paths[None, :, t], sequences[:, None, t]]
    return np.log(emit_prob @ path_prob)


def test_criterion_8_filter_vs_enumeration():
    started = time.time()
    rng = np.random.default_rng(108)
    worst = 0.0
    for draw in range(3):
        params = BktParams(*rng.uniform(0.05, 0.95, size=5))
        for length in range(1, 9):
            brute = _loglik_bruteforce_all(params, length)
            for index in range(2**length):
                responses = [(index >> t) & 1 for t in range(length)]
                got = forward_filter(params, responses).log_likelihood
                worst = max(worst, abs(got - brute[index]))
    elapsed = time.time() - started
    _report(
        8,
        "filter-vs-path-enumeration",
        worst <= 1e-10 and elapsed < 10.0,
        f"max dev {worst:.2e} over all sequences T<=8 x 3 draws, {elapsed:.1f}s",
    )


def test_criterion_9_irf_suite():
    started = time.time()
    rng = np.random.default_rng(109)
    h = 1e-5
    ok = True
    worst_grad = 0.0
    for _ in range(10**3):
        c = rng.uniform(0.0, 0.45)
        d = rng.uniform(c + 0.05, 1.0)
        item = Irf4pl(a=rng.uniform(0.5, 3.0), b=rng.uniform(-3, 3), c=c, d=d)
        span = 60.0 / item.a
        ok = ok and abs(irf_4pl(item.b - span, item) - item.c) < 1e-12
        ok = ok and abs(irf_4pl(item.b + span, item) - item.d) < 1e-12
        x = rng.uniform(0.0, 6.0)
        symmetry = irf_4pl(item.b + x, item) + irf_4pl(item.b - x, item)
        ok = ok and abs(symmetry - (item.c + item.d)) < 1e-12
        ok = ok and abs(irf_4pl(item.b, item) - 0.5 * (item.c + item.d)) < 1e-12
        slope = irf_slope_max(item)
        ok = ok and abs(slope - item.a * (item.d - item.c) / 4.0) < 1e-15
        numeric = (irf_4pl(item.b + h, item) - irf_4pl(item.b - h, item)) / (2 * h)
        worst_grad = max(worst_grad, abs(slope - numeric))
        ok = ok and worst_grad < 1e-6
    elapsed = time.time() - started
    _report(
        9,
        "irf-suite",
        ok and elapsed < 1.0,
        f"10^3 items; worst slope-vs-finite-difference {worst_grad:.2e}, "
        f"{elapsed:.2f}s",
    )


def _all_pairs_net(n: int, seed: int) -> IsingNetwork:
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.2, 0.7, size=(n, n))
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 0.0)
    return IsingNetwork(
        couplings=sigma,
        fields=rng.uniform(-0.5, 0.5, size=n),
        p_guess=np.full(n, 0.1),
        p_slip=np.full(n, 0.1),
    )


def test_criterion_10_ising_oracle():
    started = time.time()
    sweeps = 10**6
    burn_in, thin = 1000, 10
    results = []
    ok = True
    for n in (2, 3, 4):
        net = _all_pairs_net(n, seed=110 + n)
        exact = boltzmann_exact(net)
        critical = chi2_dist.ppf(1.0 - 0.001, df=2**n - 1)
        for which, dynamics in enumerate(("glauber", "metropolis")):
            trace = simulate_field(
                net, sweeps, RngKey(110, (n, which)), dynamics=dynamics
            )
            freqs = empirical_state_frequencies(trace, burn_in=burn_in, thin=thin)
            m = len(range(burn_in, sweeps, thin))
            statistic = float(np.sum((freqs * m - exact * m) ** 2 / (exact * m)))
            results.append(f"n={n} {dynamics} chi2={statistic:.1f}<{critical:.1f}")
            ok = ok and statistic < critical

    # Single-node marginal equals logistic(h) within 3 sigma.
    h = 0.8
    single = IsingNetwork(
        couplings=np.zeros((1, 1)),
        fields=np.array([h]),
        p_guess=np.array([0.0]),
        p_slip=np.array([0.0]),
    )
    trace = simulate_field(single, 200000, RngKey(110, (1,)))
    thinned = trace.latent[1000::5, 0]
    want = float(logistic(h))
    sigma = math.sqrt(want * (1.0 - want) / thinned.size)
    marginal_dev = abs(float(thinned.mean()) - want)
    ok = ok and marginal_dev <= 3 * sigma
    elapsed = time.time() - started
    ok = ok and elapsed < 30.0
    _report(
        10,
        "ising-boltzmann-oracle",
        ok,
        "; ".join(results)
        + f"; single-node dev {marginal_dev:.4f} vs 3 sigma {3 * sigma:.4f}, "
        f"{elapsed:.1f}s",
    )
