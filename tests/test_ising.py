"""Network validation, energy/Boltzmann oracles, dynamics convergence."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

import bktirt.ising as ising_mod
from bktirt import (
    IsingNetwork,
    RngKey,
    Trajectory,
    boltzmann_exact,
    conditional_prob,
    empirical_state_frequencies,
    energy,
    flip_energy_delta,
    glauber_step,
    logistic,
    metropolis_step,
    simulate_field,
)
from bktirt.errors import InsufficientData, OutOfRange, TooLarge


def _net(couplings, fields, guess=None, slip=None):
    n = len(fields)
    return IsingNetwork(
        couplings=np.asarray(couplings, dtype=float),
        fields=np.asarray(fields, dtype=float),
        p_guess=np.asarray(guess if guess is not None else [0.0] * n, dtype=float),
        p_slip=np.asarray(slip if slip is not None else [0.0] * n, dtype=float),
    )


def _random_net(n, seed, low=0.2, high=0.8, field_span=0.5, guess=0.1, slip=0.1):
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(low, high, size=(n, n))
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 0.0)
    fields = rng.uniform(-field_span, field_span, size=n)
    return _net(sigma, fields, [guess] * n, [slip] * n)


def _per_site_reference(net, sweeps, key, dynamics, scan):
    """Latent and emitted paths drawn one scalar uniform per site update
    through glauber_step / metropolis_step: per sweep, n order keys under
    random scan, then one draw per update, then n emission draws."""
    step = glauber_step if dynamics == "glauber" else metropolis_step
    n = net.n_nodes
    gen = key.generator()
    z = np.zeros(n, dtype=np.uint8)
    latent, emitted = [], []
    for _ in range(sweeps):
        order = range(n) if scan == "fixed" else np.argsort(gen.random(n), kind="stable")
        for j in order:
            z = step(net, z, int(j), gen)
        latent.append(z)
        p_correct = np.where(z == 1, 1.0 - net.p_slip, net.p_guess)
        emitted.append(gen.random(n) < p_correct)
    return np.array(latent), np.array(emitted, dtype=np.uint8)


def _force_walk(monkeypatch):
    """Send every tabulated network to the sweep-table walk."""
    monkeypatch.setattr(
        ising_mod, "_plan", lambda counts, n_states, sweeps: ising_mod._groups(counts, n_states)
    )


class TestNetworkValidation:
    def test_asymmetric_couplings_rejected(self):
        with pytest.raises(OutOfRange):
            _net([[0.0, 0.2], [0.3, 0.0]], [0.0, 0.0])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(OutOfRange):
            _net([[0.1, 0.2], [0.2, 0.0]], [0.0, 0.0])

    def test_emission_bounds_checked(self):
        with pytest.raises(OutOfRange):
            _net([[0.0, 0.2], [0.2, 0.0]], [0.0, 0.0], guess=[0.1, 1.2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(OutOfRange):
            _net([[0.0]], [0.0, 0.0])

    def test_non_finite_entries_rejected(self):
        # NaN passes the symmetry check (every comparison with it is false).
        with pytest.raises(OutOfRange, match="couplings"):
            _net([[0.0, math.nan], [math.nan, 0.0]], [0.0, 0.0])
        with pytest.raises(OutOfRange, match="fields"):
            _net([[0.0, 0.2], [0.2, 0.0]], [0.0, math.inf])

    def test_strong_network_inside_the_bound_stays_finite(self):
        net = _net([[0.0, 1e307], [1e307, 0.0]], [-1e307, 1e307])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            probs = boltzmann_exact(net)
            for dynamics in ("glauber", "metropolis"):
                simulate_field(net, 20, RngKey(25), dynamics=dynamics)
        assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0)

    def test_dict_round_trip(self):
        net = _random_net(3, seed=1)
        again = IsingNetwork.from_dict(net.to_dict())
        np.testing.assert_allclose(again.couplings, net.couplings)
        np.testing.assert_allclose(again.fields, net.fields)
        np.testing.assert_allclose(again.p_guess, net.p_guess)

    def test_json_file_round_trip(self, tmp_path):
        import json

        net = _random_net(4, seed=2)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net.to_dict()))
        again = IsingNetwork.from_json_file(str(path))
        np.testing.assert_allclose(again.couplings, net.couplings)


class TestEnergy:
    def test_all_zero_state_has_zero_energy(self):
        net = _random_net(4, seed=3)
        assert energy(net, [0, 0, 0, 0]) == 0.0

    def test_single_node_field(self):
        net = _net([[0.0]], [0.7])
        assert energy(net, [1]) == pytest.approx(-0.7, abs=1e-15)

    def test_pair_coupling(self):
        net = _net([[0.0, math.log(2)], [math.log(2), 0.0]], [0.0, 0.0])
        assert energy(net, [1, 1]) == pytest.approx(-math.log(2), abs=1e-15)

    def test_invariant_under_node_relabeling(self):
        rng = np.random.default_rng(4)
        net = _random_net(5, seed=5, field_span=1.0)
        for _ in range(50):
            perm = rng.permutation(5)
            z = rng.integers(0, 2, size=5)
            permuted = _net(
                net.couplings[np.ix_(perm, perm)],
                net.fields[perm],
                net.p_guess[perm],
                net.p_slip[perm],
            )
            assert energy(permuted, z[perm]) == pytest.approx(
                energy(net, z), abs=1e-12
            )


class TestBoltzmannExact:
    def test_single_node_marginal_is_logistic(self):
        for h in (-2.0, -0.3, 0.0, 0.8, 3.0):
            probs = boltzmann_exact(_net([[0.0]], [h]))
            assert probs[1] == pytest.approx(logistic(h), abs=1e-12)

    def test_independent_zero_field_pair_is_uniform(self):
        probs = boltzmann_exact(_net([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_log_two_coupling_weights(self):
        net = _net([[0.0, math.log(2)], [math.log(2), 0.0]], [0.0, 0.0])
        np.testing.assert_allclose(
            boltzmann_exact(net), [0.2, 0.2, 0.2, 0.4], atol=1e-12
        )

    def test_normalization(self):
        probs = boltzmann_exact(_random_net(6, seed=6, field_span=1.5))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            boltzmann_exact(_net(np.zeros((21, 21)), np.zeros(21)))

    def test_positive_manifold_from_positive_couplings(self):
        # Uniformly positive interactions force nonnegative pairwise
        # covariance of the equilibrium states.
        for seed in range(8):
            for n in (2, 3, 4):
                net = _random_net(n, seed=100 + seed, low=0.05, high=1.0)
                probs = boltzmann_exact(net)
                bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
                mean = probs @ bits
                second = bits.T @ (probs[:, None] * bits)
                cov = second - np.outer(mean, mean)
                off_diag = cov[~np.eye(n, dtype=bool)]
                assert np.all(off_diag >= -1e-12)


class TestSingleSiteDynamics:
    def test_isolated_node_conditional_is_half(self):
        net = _net([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        assert conditional_prob(net, [0, 1], 0) == 0.5

    def test_conditional_equals_boltzmann_ratio(self):
        # logistic form == exp(-E(z1)) / (exp(-E(z0)) + exp(-E(z1))).
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            net = _random_net(n, seed=int(rng.integers(10**6)), field_span=1.0)
            z = rng.integers(0, 2, size=n)
            node = int(rng.integers(n))
            z0, z1 = z.copy(), z.copy()
            z0[node], z1[node] = 0, 1
            w0, w1 = math.exp(-energy(net, z0)), math.exp(-energy(net, z1))
            assert conditional_prob(net, z, node) == pytest.approx(
                w1 / (w0 + w1), abs=1e-12
            )

    def test_conditional_monotone_in_field(self):
        sigma = [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        strong = _net(sigma, [0.0, 0.0, 8.0])
        weak = _net(sigma, [0.0, 0.0, 0.0])
        z = [1, 1, 0]
        assert conditional_prob(strong, z, 2) > conditional_prob(weak, z, 2)
        assert conditional_prob(strong, z, 2) > 0.999

    def test_metropolis_always_accepts_downhill(self):
        net = _net([[0.0]], [5.0])
        gen = RngKey(8).generator()
        for _ in range(50):
            new = metropolis_step(net, [0], 0, gen)
            assert new[0] == 1  # delta E = -5 < 0, acceptance probability 1

    def test_glauber_step_changes_only_target_node(self):
        net = _random_net(4, seed=9)
        gen = RngKey(9).generator()
        z = np.array([0, 1, 0, 1], dtype=np.uint8)
        new = glauber_step(net, z, 2, gen)
        assert list(new[[0, 1, 3]]) == [0, 1, 1]

    def test_flip_delta_matches_energy_difference(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            net = _random_net(4, seed=int(rng.integers(10**6)), field_span=1.0)
            z = rng.integers(0, 2, size=4)
            node = int(rng.integers(4))
            flipped = z.copy()
            flipped[node] ^= 1
            assert flip_energy_delta(net, z, node) == pytest.approx(
                energy(net, flipped) - energy(net, z), abs=1e-12
            )


class TestSimulateField:
    def test_deterministic_under_key(self):
        net = _random_net(3, seed=11)
        one = simulate_field(net, 200, RngKey(11, (2,)))
        two = simulate_field(net, 200, RngKey(11, (2,)))
        np.testing.assert_array_equal(one.latent, two.latent)
        np.testing.assert_array_equal(one.emitted, two.emitted)

    def test_table_and_reference_paths_identical(self, monkeypatch):
        net = _random_net(3, seed=12)
        for dynamics in ("glauber", "metropolis"):
            for scan in ("fixed", "random"):
                key = RngKey(12)
                fast = simulate_field(net, 300, key, dynamics=dynamics, scan=scan)
                monkeypatch.setattr(ising_mod, "_TABLE_MAX_NODES", 0)
                slow = simulate_field(net, 300, key, dynamics=dynamics, scan=scan)
                monkeypatch.undo()
                np.testing.assert_array_equal(fast.latent, slow.latent)
                np.testing.assert_array_equal(fast.emitted, slow.emitted)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 13, 17])
    def test_stream_layout_matches_per_site_reference(self, monkeypatch, n, dynamics, scan):
        # At 150 sweeps the plan keeps n <= 12 on the per-site loop over the
        # 2^n tables; forcing it puts them on the sweep-table walk. n = 13
        # and 17 compute thresholds on lookup. Every path must consume the
        # stream exactly as one scalar draw per update. Latent bits and
        # emissions are written one byte of the state index at a time:
        # n = 8 fills one byte, 9 starts a second and 17 a third.
        net = _random_net(n, seed=23 + n, low=-0.6, high=0.6, guess=0.2, slip=0.1)
        key = RngKey(23, (n,))
        latent, emitted = _per_site_reference(net, 150, key, dynamics, scan)
        traces = [simulate_field(net, 150, key, dynamics=dynamics, scan=scan)]
        assert ising_mod.lookups_per_sweep(net, 150, dynamics, scan) == n
        if n <= ising_mod._TABLE_MAX_NODES:
            _force_walk(monkeypatch)
            groups = ising_mod.lookups_per_sweep(net, 150, dynamics, scan)
            # From n = 8 no two positions' tables fit one group table.
            assert groups < n if 1 < n < 8 else groups == n
            if n == 5:
                assert groups > 1
            traces.append(simulate_field(net, 150, key, dynamics=dynamics, scan=scan))
        for trace in traces:
            np.testing.assert_array_equal(trace.latent, latent)
            np.testing.assert_array_equal(trace.emitted, emitted)
            assert 0.0 < trace.flip_rate() < 1.0

    def test_plan_sends_long_runs_on_small_networks_to_the_walk(self):
        # The shapes of the benchmark's two ising jobs, and a short run.
        small = _random_net(4, seed=30, low=-1.0, high=1.0, field_span=1.0)
        assert ising_mod.lookups_per_sweep(small, 10**6, "metropolis", "fixed") == 1
        large = _random_net(8, seed=31, low=-0.5, high=0.5, field_span=1.0)
        assert ising_mod.lookups_per_sweep(large, 20000, "glauber", "random") == 8
        short = _random_net(3, seed=32)
        for dynamics in ("glauber", "metropolis"):
            for scan in ("fixed", "random"):
                assert ising_mod.lookups_per_sweep(short, 150, dynamics, scan) == 3
        # The rule itself: four positions of ten codes over 16 states merge
        # into one table, worth building only for a long enough run.
        assert ising_mod._plan([10] * 4, 16, 10**6) == [4]
        assert ising_mod._plan([10] * 4, 16, 150) is None
        # Positions that cannot merge keep the per-site loop at any length.
        assert ising_mod._plan([145] * 8, 256, 10**9) is None
        assert ising_mod._groups([10] * 5, 32) == [3, 2]

    def test_plan_sends_a_few_hundred_sweeps_on_two_nodes_to_the_walk(self, monkeypatch):
        # On two nodes the walk saves about 270-680 ns a sweep and pays
        # back its set-up within about 330 sweeps.
        net = _random_net(2, seed=36)
        assert ising_mod.lookups_per_sweep(net, 400, "glauber", "fixed") < 2
        walk = simulate_field(net, 400, RngKey(36))
        monkeypatch.setattr(ising_mod, "_plan", lambda counts, n_states, sweeps: None)
        loop = simulate_field(net, 400, RngKey(36))
        np.testing.assert_array_equal(walk.latent, loop.latent)
        np.testing.assert_array_equal(walk.emitted, loop.emitted)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    def test_walk_matches_per_site_loop_on_draws_equal_to_thresholds(self, dynamics, scan):
        # A uniform equal to a threshold does not update (u < t fails); the
        # walk's rank must agree exactly there, which random draws never test.
        n = 4
        net = _random_net(n, seed=35, low=-1.0, high=1.0, field_span=1.0)
        tables = ising_mod._thresholds(net, dynamics)
        levels = [np.unique(table, return_inverse=True) for table in tables]
        counts = ising_mod._code_counts(levels, scan)
        flip = dynamics == "metropolis"
        walk = ising_mod._Walk(levels, ising_mod._groups(counts, 2**n), scan, flip)
        rng = np.random.default_rng(35)
        values = np.concatenate([np.unique(table) for table in tables] + [[0.0]])
        draws = rng.random((4000, ising_mod.uniforms_per_sweep(n, scan)))
        update = slice(0, n) if scan == "fixed" else slice(n, 2 * n)
        draws[:, update] = rng.choice(values, size=(4000, n))
        for start in (0, 5, 15):
            assert walk.sweep(draws, start) == ising_mod._sweep_sites(
                tables, draws, scan, flip, start
            )

    def test_walk_matches_per_site_loop_over_many_chunks(self, monkeypatch):
        # Long enough for the plan's own choice, and to cross chunk borders.
        net = _random_net(4, seed=33, low=-1.0, high=1.0, field_span=1.0)
        for dynamics in ("glauber", "metropolis"):
            for scan in ("fixed", "random"):
                key = RngKey(33)
                assert ising_mod.lookups_per_sweep(net, 70000, dynamics, scan) < 4
                walk = simulate_field(net, 70000, key, dynamics=dynamics, scan=scan)
                monkeypatch.setattr(ising_mod, "_plan", lambda counts, n_states, sweeps: None)
                loop = simulate_field(net, 70000, key, dynamics=dynamics, scan=scan)
                monkeypatch.undo()
                np.testing.assert_array_equal(walk.latent, loop.latent)
                np.testing.assert_array_equal(walk.emitted, loop.emitted)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"sweeps": 0}, "sweeps"), ({"dynamics": "heat-bath"}, "dynamics"),
         ({"scan": "checkerboard"}, "scan")],
    )
    def test_bad_arguments_rejected(self, kwargs, match):
        args = {"sweeps": 10, "key": RngKey(22), **kwargs}
        with pytest.raises(ValueError, match=match):
            simulate_field(_random_net(2, seed=22), **args)

    def test_state_index_width_caps_the_node_count(self):
        # Every node of the widest index, bits 56-62 (the eighth byte)
        # included, must match the per-site reference.
        net = _random_net(63, seed=24, low=-0.3, high=0.3, field_span=1.0, guess=0.2, slip=0.2)
        for scan in ("fixed", "random"):
            latent, emitted = _per_site_reference(net, 4, RngKey(24), "glauber", scan)
            wide = simulate_field(net, 4, RngKey(24), scan=scan)
            np.testing.assert_array_equal(wide.latent, latent)
            np.testing.assert_array_equal(wide.emitted, emitted)
            assert 0 < latent[:, 56:].sum() < latent[:, 56:].size
            assert 0 < emitted[:, 56:].sum() < emitted[:, 56:].size
        with pytest.raises(TooLarge):
            simulate_field(_net(np.zeros((64, 64)), np.zeros(64)), 3, RngKey(24))

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    def test_flip_rate_is_metropolis_acceptance_rate(self, scan):
        n, sweeps = 4, 400
        net = _random_net(n, seed=19, field_span=1.0)
        trace = simulate_field(net, sweeps, RngKey(19), dynamics="metropolis", scan=scan)
        gen = RngKey(19).generator()
        z = np.zeros(n, dtype=np.uint8)
        accepted = 0
        for _ in range(sweeps):
            if scan == "fixed":
                order = range(n)
            else:
                order = np.argsort(gen.random(n), kind="stable")
            for j in order:
                new = metropolis_step(net, z, int(j), gen)
                accepted += int(new[j] != z[j])
                z = new
            gen.random(n)  # emission draws
        assert trace.flip_rate() == accepted / (sweeps * n)

    def test_random_scan_runs_and_differs(self):
        net = _random_net(3, seed=13)
        fixed = simulate_field(net, 300, RngKey(13), scan="fixed")
        random_scan = simulate_field(net, 300, RngKey(13), scan="random")
        assert not np.array_equal(fixed.latent, random_scan.latent)

    def test_fair_independent_nodes_emit_half(self):
        net = _net(np.zeros((3, 3)), [0.0, 0.0, 0.0])
        trace = simulate_field(net, 40000, RngKey(14))
        marginals = trace.emitted[1000::5].mean(axis=0)
        sigma = 0.5 / math.sqrt(trace.emitted[1000::5].shape[0])
        assert np.all(np.abs(marginals - 0.5) < 4 * sigma)

    def test_uncoupled_node_matches_single_node_law(self):
        # sigma = 0 decouples nodes; each latent marginal is logistic(h_j).
        fields = [0.9, -0.4]
        net = _net(np.zeros((2, 2)), fields)
        trace = simulate_field(net, 60000, RngKey(15))
        thinned = trace.latent[2000::5]
        for j, h in enumerate(fields):
            want = boltzmann_exact(_net([[0.0]], [h]))[1]
            sigma = math.sqrt(want * (1 - want) / thinned.shape[0])
            assert abs(thinned[:, j].mean() - want) < 4 * sigma

    def test_emission_mixes_latent_marginal(self):
        net = _random_net(3, seed=16, guess=0.15, slip=0.2)
        sweeps = 120000
        trace = simulate_field(net, sweeps, RngKey(16))
        probs = boltzmann_exact(net)
        bits = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(float)
        latent_marginal = probs @ bits
        want = 0.15 + (1.0 - 0.2 - 0.15) * latent_marginal
        thinned = trace.emitted[2000::10]
        got = thinned.mean(axis=0)
        sigma = np.sqrt(want * (1 - want) / thinned.shape[0])
        assert np.all(np.abs(got - want) < 4 * sigma)

    def test_long_run_frequencies_match_exact_law(self):
        net = _random_net(2, seed=17, field_span=0.6)
        exact = boltzmann_exact(net)
        for dynamics in ("glauber", "metropolis"):
            trace = simulate_field(net, 200000, RngKey(17), dynamics=dynamics)
            freqs = empirical_state_frequencies(trace, burn_in=1000, thin=10)
            assert np.max(np.abs(freqs - exact)) < 0.01

    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_random_scan_frequencies_pass_chi_square(self, n, dynamics):
        # The all-pairs networks of acceptance criterion 10, on random scan.
        net = _random_net(n, seed=110 + n, high=0.7)
        exact = boltzmann_exact(net)
        sweeps, burn_in, thin = 200000, 1000, 10
        which = ("glauber", "metropolis").index(dynamics)
        trace = simulate_field(
            net, sweeps, RngKey(210, (n, which)), dynamics=dynamics, scan="random"
        )
        freqs = empirical_state_frequencies(trace, burn_in=burn_in, thin=thin)
        m = len(range(burn_in, sweeps, thin))
        statistic = float(np.sum((freqs - exact) ** 2 * m / exact))
        assert statistic < chi2_dist.ppf(1.0 - 0.001, df=2**n - 1)

    def test_frequencies_reject_bad_window(self):
        trace = simulate_field(_random_net(2, seed=21), 10, RngKey(21))
        with pytest.raises(ValueError, match="burn_in"):
            empirical_state_frequencies(trace, burn_in=-3)
        with pytest.raises(ValueError, match="thin"):
            empirical_state_frequencies(trace, thin=0)
        for burn_in in (10, 11):
            with pytest.raises(InsufficientData):
                empirical_state_frequencies(trace, burn_in=burn_in)
        assert empirical_state_frequencies(trace, burn_in=9).sum() == 1.0

    def test_trace_indexing(self):
        net = _random_net(2, seed=18)
        trace = simulate_field(net, 50, RngKey(18))
        assert len(trace) == 50
        indices = ising_mod.state_indices(trace.latent)
        assert indices.shape == (50,)
        np.testing.assert_array_equal(
            (indices[:, None] >> np.arange(2)) & 1, trace.latent
        )

    def test_state_indices_pack_every_bit(self):
        latent = np.random.default_rng(34).integers(0, 2, size=(500, 63)).astype(np.uint8)
        want = latent.astype(np.int64) @ (1 << np.arange(63, dtype=np.int64))
        got = ising_mod.state_indices(latent)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def _frequencies_by_rebuild(latent, burn_in, thin):
    """State frequencies counted from indices rebuilt out of the latent
    bits in one piece, as they were before the sampler kept its index."""
    counts = np.bincount(
        ising_mod.state_indices(latent[burn_in::thin]), minlength=2 ** latent.shape[1]
    ).astype(float)
    return counts / counts.sum()


class TestStateIndex:
    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [1, 4, 8, 9, 13, 17])
    def test_frequencies_from_the_index_equal_the_rebuild(self, monkeypatch, n, dynamics, scan):
        # In chunks of 64 sweeps, 301 sweeps end inside a chunk, and the
        # burn-ins and thinnings below start and step across chunk borders.
        # The chunk size must not change the output.
        net = _random_net(n, seed=40 + n, low=-0.6, high=0.6)
        key = RngKey(40, (n,))
        whole = simulate_field(net, 301, key, dynamics=dynamics, scan=scan)
        monkeypatch.setattr(ising_mod, "_CHUNK", 64)
        trace = simulate_field(net, 301, key, dynamics=dynamics, scan=scan)
        np.testing.assert_array_equal(trace.latent, whole.latent)
        np.testing.assert_array_equal(trace.emitted, whole.emitted)
        np.testing.assert_array_equal(trace.states, whole.states)
        np.testing.assert_array_equal(trace.states, ising_mod.state_indices(trace.latent))
        for burn_in, thin in ((0, 1), (70, 3), (63, 65), (300, 1)):
            want = _frequencies_by_rebuild(trace.latent, burn_in, thin)
            got = empirical_state_frequencies(trace, burn_in=burn_in, thin=thin)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "n, dtype",
        [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
         (32, np.uint32), (33, np.int64), (63, np.int64)],
    )
    def test_states_take_the_narrowest_type(self, n, dtype):
        net = _random_net(n, seed=50 + n, low=-0.3, high=0.3, field_span=1.0)
        trace = simulate_field(net, 5, RngKey(50, (n,)))
        assert trace.states.dtype == dtype
        np.testing.assert_array_equal(trace.states, ising_mod.state_indices(trace.latent))

    def test_a_hand_built_trajectory_is_counted_from_latent(self, monkeypatch):
        latent = np.array([[0, 0], [1, 0], [1, 1], [1, 0], [0, 1], [1, 0]], dtype=np.uint8)
        trace = Trajectory(latent, np.zeros_like(latent), RngKey(0))
        assert trace.states is None
        # Packed, the rows are 0, 1, 3, 1, 2, 1.
        want = {(0, 1): [1, 3, 1, 1], (1, 2): [0, 3, 0, 0], (2, 3): [0, 1, 0, 1]}
        for chunk in (ising_mod._CHUNK, 2):
            monkeypatch.setattr(ising_mod, "_CHUNK", chunk)
            for (burn_in, thin), counts in want.items():
                got = empirical_state_frequencies(trace, burn_in=burn_in, thin=thin)
                np.testing.assert_array_equal(got, np.array(counts) / sum(counts))

    def test_peak_memory_per_site_update(self):
        # At n = 1 a run holds 3 bytes per sweep (latent, emitted and the
        # uint8 index) plus one chunk's buffers, about 81 bytes per sweep of
        # the chunk. Rebuilding int64 indices to count states took 16 bytes
        # per sweep more.
        net = _net([[0.0]], [0.3], [0.1], [0.2])
        sweeps = 2**18
        simulate_field(net, 100, RngKey(60))  # first-call allocations stay out
        tracemalloc.start()
        try:
            trace = simulate_field(net, sweeps, RngKey(60))
            empirical_state_frequencies(trace, burn_in=100)
            trace.flip_rate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sweeps + 128 * ising_mod._CHUNK


def _walk_for(net, dynamics, scan):
    """The sweep-table walk over every merge the group budget allows, with
    the threshold tables it was built from."""
    tables = ising_mod._thresholds(net, dynamics)
    levels = [np.unique(table, return_inverse=True) for table in tables]
    groups = ising_mod._groups(ising_mod._code_counts(levels, scan), 2**net.n_nodes)
    walk = ising_mod._Walk(levels, groups, scan, dynamics == "metropolis")
    return walk, tables, len(groups)


def _assert_walk_exact(net, dynamics, scan, values, rows=3000, seed=0):
    """Walk and per-site loop agree on update draws picked from values."""
    n = net.n_nodes
    walk, tables, _ = _walk_for(net, dynamics, scan)
    rng = np.random.default_rng(seed)
    draws = rng.random((rows, ising_mod.uniforms_per_sweep(n, scan)))
    update = slice(0, n) if scan == "fixed" else slice(n, 2 * n)
    draws[:, update] = rng.choice(values, size=(rows, n))
    for start in (0, 2**n - 1):
        assert walk.sweep(draws, start) == ising_mod._sweep_sites(
            tables, draws, scan, dynamics == "metropolis", start
        )


def _bucket_edges(tables):
    """Draws on the start of every bucket holding a threshold and of the
    next one, one ulp below each, and the thresholds with their two ulp
    neighbours, all within [0, 1)."""
    m = ising_mod._BUCKETS
    levels = np.unique(np.concatenate([np.asarray(table) for table in tables]))
    starts = np.unique(np.floor(levels * m))
    starts = np.concatenate([starts, starts + 1]) / m
    edges = np.concatenate([
        starts, np.nextafter(starts, 0.0),
        levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0), [0.0],
    ])
    return np.unique(edges[(edges >= 0.0) & (edges < 1.0)])


class TestBucketRanks:
    """The walk finds each draw's rank in a bucket table of M buckets per
    node, with an exact searchsorted for draws in a bucket that holds a
    threshold. These inputs sit on the edges of that lookup."""

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_draws_on_bucket_starts_and_one_ulp_below(self, n, dynamics, scan):
        net = _random_net(n, seed=40 + n, low=-1.0, high=1.0, field_span=1.0)
        _, tables, groups = _walk_for(net, dynamics, scan)
        if n == 5:
            assert groups > 1
        _assert_walk_exact(net, dynamics, scan, _bucket_edges(tables), seed=n)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    def test_glauber_threshold_of_one_half_on_a_bucket_start(self, scan):
        # Zero fields: a node whose neighbours are all unmastered has local
        # field 0, so its threshold is logistic(0) = 0.5 = (M/2)/M exactly.
        net = _random_net(4, seed=44, low=-1.0, high=1.0, field_span=0.0)
        tables = ising_mod._thresholds(net, "glauber")
        assert all(table[0] == 0.5 for table in tables)
        values = np.array([0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.25, 0.75])
        _assert_walk_exact(net, "glauber", scan, values, seed=44)
        _assert_walk_exact(net, "glauber", scan, _bucket_edges(tables), seed=45)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    def test_thresholds_of_exactly_zero_and_one(self, dynamics, scan):
        # Fields of +-1000 put thresholds at exactly 0.0 (exp and logistic
        # underflow) and 1.0 (downhill moves, logistic overflow).
        net = _random_net(4, seed=46, low=-1.0, high=1.0)
        net = _net(net.couplings, [-1000.0, 1000.0, 0.3, -0.2])
        tables = ising_mod._thresholds(net, dynamics)
        flat = np.concatenate([np.asarray(table) for table in tables])
        assert 0.0 in flat and 1.0 in flat
        values = np.concatenate([_bucket_edges(tables), [0.0, 5e-324, 1.0 - 2**-53]])
        _assert_walk_exact(net, dynamics, scan, values, seed=46)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    def test_every_chunk_through_the_fix_up(self, monkeypatch, dynamics, scan):
        # One bucket per node holds every threshold below 1, so every draw
        # of every chunk takes the exact searchsorted.
        net = _random_net(4, seed=47, low=-1.0, high=1.0, field_span=1.0)
        key = RngKey(47)
        monkeypatch.setattr(ising_mod, "_plan", lambda counts, n_states, sweeps: None)
        loop = simulate_field(net, 70000, key, dynamics=dynamics, scan=scan)
        monkeypatch.setattr(ising_mod, "_BUCKETS", 1)
        walk, _, _ = _walk_for(net, dynamics, scan)
        assert np.all(walk.buckets.reshape(4, 2)[:, 0] == -1)
        _force_walk(monkeypatch)
        assert ising_mod.lookups_per_sweep(net, 70000, dynamics, scan) < 4
        trace = simulate_field(net, 70000, key, dynamics=dynamics, scan=scan)
        np.testing.assert_array_equal(trace.latent, loop.latent)
        np.testing.assert_array_equal(trace.emitted, loop.emitted)
