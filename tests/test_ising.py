"""Network validation, energy/Boltzmann oracles, dynamics convergence."""

from __future__ import annotations

import math
import struct
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
    empirical_state_frequencies,
    logistic,
    simulate_field,
)
from bktirt.errors import InsufficientData, OutOfRange, TooLarge
from reference import conditional_prob, energy, flip_energy_delta, glauber_step, metropolis_step


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

    def test_emission_shape_checked(self):
        with pytest.raises(OutOfRange, match="one guess and one slip probability per node"):
            _net([[0.0, 0.2], [0.2, 0.0]], [0.0, 0.0], guess=[0.1, 0.1, 0.1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(OutOfRange):
            _net([[0.0]], [0.0, 0.0])

    def test_zero_nodes_rejected(self):
        # As from_dict refuses "n": 0; simulating one would fail on an empty path.
        with pytest.raises(OutOfRange, match="at least 1 node"):
            IsingNetwork(couplings=np.zeros((0, 0)), fields=np.zeros(0),
                         p_guess=np.zeros(0), p_slip=np.zeros(0))

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

    _RAW = {"n": 3, "couplings": [[0, 1, 0.4], [2, 1, -0.3]], "fields": [0.1, -0.2, 0.3],
            "emissions": [[0.1, 0.2], [0.0, 0.0], [0.3, 0.1]]}

    def test_dict_round_trip(self):
        net = IsingNetwork.from_dict(self._RAW)
        assert net.couplings.tolist() == [[0.0, 0.4, 0.0], [0.4, 0.0, -0.3], [0.0, -0.3, 0.0]]
        assert net.fields.tolist() == [0.1, -0.2, 0.3]
        assert net.p_guess.tolist() == [0.1, 0.0, 0.3]
        assert net.p_slip.tolist() == [0.2, 0.0, 0.1]

    def test_json_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "net.json"
        path.write_text(json.dumps(self._RAW))
        again = IsingNetwork.from_json_file(str(path))
        net = IsingNetwork.from_dict(self._RAW)
        for name in ("couplings", "fields", "p_guess", "p_slip"):
            np.testing.assert_array_equal(getattr(again, name), getattr(net, name))


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

    @pytest.mark.parametrize("z", [[1, 0, 1], [2, 0]])
    def test_state_must_be_n_bits(self, z):
        net = _net(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(OutOfRange) as caught:
            energy(net, z)
        assert type(caught.value) is OutOfRange


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

    def test_blocks_of_states_give_the_whole_matrix_law_in_little_memory(self):
        # At n = 16 the states span four blocks of _CHUNK. Each block's
        # energies take the float operations of one (2^n, n) matrix of all
        # states, so the law is the same to the bit, but no such matrix
        # (8 MiB per copy here) is made. The peak holds three arrays of 2^n
        # floats (energies, weights, law) and a block's bits, up to three
        # copies of 8 bytes per node and state; the bound allows four.
        n = 16
        net = _random_net(n, seed=16, low=-1.0, high=1.0, field_span=1.0)
        bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
        energies = -(0.5 * np.einsum("si,ij,sj->s", bits, net.couplings, bits)
                     + bits @ net.fields)
        weights = np.exp(-(energies - energies.min()))
        del bits
        boltzmann_exact(_random_net(2, seed=16))  # first-call allocations stay out
        tracemalloc.start()
        try:
            probs = boltzmann_exact(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(probs, weights / weights.sum())
        assert peak < 3 * 8 * 2**n + 4 * 8 * n * ising_mod._CHUNK

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_rank_one_couplings_match_the_gauss_hermite_law(self, n):
        # sigma_jk = a_j a_k, signs mixed, against a law built without the
        # energy: a second oracle that shares no code with boltzmann_exact.
        rng = np.random.default_rng(70 + n)
        a = rng.uniform(0.2, 0.8, n) * rng.choice([-1.0, 1.0], n)
        fields = rng.uniform(-1.0, 1.0, n)
        law = _rank_one_law(a, fields)
        couplings = np.outer(a, a)
        np.fill_diagonal(couplings, 0.0)
        off = couplings.copy()
        off[0, 1] = off[1, 0] = couplings[0, 1] + 0.05
        assert np.max(np.abs(boltzmann_exact(_net(couplings, fields)) - law)) <= 1e-12
        assert np.max(np.abs(boltzmann_exact(_net(off, fields)) - law)) > 1e-12

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


def _rank_one_law(a, fields):
    """The Boltzmann law of couplings sigma_jk = a_j a_k by a Gaussian
    integral: since z_j^2 = z_j, sum_{j<k} a_j a_k z_j z_k is
    ((a . z)^2 - sum_j a_j^2 z_j) / 2, and exp(s^2 / 2) is the mean of
    exp(s theta) over a standard normal theta, so
    P(z) ~ E[prod_j exp(z_j (a_j theta + h_j - a_j^2 / 2))], here by
    120-point Gauss-Hermite quadrature (theta = sqrt(2) x)."""
    n = a.size
    x, w = np.polynomial.hermite.hermgauss(120)
    # c[i, j] is node j's log-odds at quadrature point i.
    c = np.sqrt(2.0) * x[:, None] * a + fields - a**2 / 2
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    law = np.zeros(2**n)
    for weight, row in zip(w, c):
        law += weight * np.exp(bits @ row)
    return law / law.sum()


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

    @pytest.mark.parametrize(
        "z, node",
        [([2, 0], 0), ([0.5, 1], 0), ([0, 1], -1), ([0, 1, 0], 0), ([0, 1], 5),
         ([[0, 1]], 0), (["0", "1"], 0), ([0, [1]], 0), ([0, 1], True), ([0, 1], 1.0)],
    )
    @pytest.mark.parametrize(
        "function",
        [conditional_prob, flip_energy_delta, glauber_step, metropolis_step],
        ids=lambda function: function.__name__,
    )
    def test_state_must_be_n_bits_and_node_an_index(self, function, z, node):
        net = _random_net(2, seed=11)
        args = (RngKey(11).generator(),) if function.__name__.endswith("step") else ()
        with pytest.raises(OutOfRange, match="^(z|node) must"):
            function(net, z, node, *args)

    def test_bits_of_any_numeric_type_and_integer_nodes_accepted(self):
        net = _random_net(3, seed=12)
        want = conditional_prob(net, [1, 0, 1], 1)
        for z in ([True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.uint8)):
            assert conditional_prob(net, z, np.int64(1)) == want


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
        # Every path must consume the stream exactly as one scalar draw per
        # update: the block sampler over the 2^n tables (n <= 12) or its
        # per-lane field sums (n = 13 and 17), and with no repair round the
        # per-site loop that finishes a chunk. Latent bits and emissions are
        # written one byte of the state index at a time: n = 8 fills one
        # byte, 9 starts a second and 17 a third.
        net = _random_net(n, seed=23 + n, low=-0.6, high=0.6, guess=0.2, slip=0.1)
        key = RngKey(23, (n,))
        latent, emitted = _per_site_reference(net, 150, key, dynamics, scan)
        traces = [simulate_field(net, 150, key, dynamics=dynamics, scan=scan)]
        assert traces[0].work["serial_sweeps"] == 0
        monkeypatch.setattr(ising_mod, "_ROUNDS", 0)
        traces.append(simulate_field(net, 150, key, dynamics=dynamics, scan=scan))
        assert traces[-1].work["rerun_sweeps"] == 0
        for trace in traces:
            np.testing.assert_array_equal(trace.latent, latent)
            np.testing.assert_array_equal(trace.emitted, emitted)
            assert 0.0 < trace.flip_rate() < 1.0

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

    @pytest.mark.parametrize(
        "n, dynamics, scan",
        [(13, "glauber", "fixed"), (13, "metropolis", "random"),
         (16, "glauber", "random"), (16, "metropolis", "fixed")],
    )
    def test_lookup_rows_pass_exact_chi_square(self, n, dynamics, scan):
        # Past 12 nodes each threshold is computed on lookup by the routine
        # the step functions use too, so the exact law is the oracle of its
        # values. A state expected at least 5 times is a cell of its own;
        # the rest are pooled into one cell.
        net = _random_net(n, seed=300 + n, low=-1.0, high=1.0, field_span=2.5)
        sweeps, burn_in, thin = 8000, 100, 3
        which = ("glauber", "metropolis").index(dynamics)
        trace = simulate_field(net, sweeps, RngKey(300, (n, which)), dynamics=dynamics, scan=scan)
        assert trace.work["serial_sweeps"] == 0
        m = len(range(burn_in, sweeps, thin))
        observed = empirical_state_frequencies(trace, burn_in=burn_in, thin=thin) * m
        expected = boltzmann_exact(net) * m
        alone = expected >= 5
        observed = np.append(observed[alone], observed[~alone].sum())
        expected = np.append(expected[alone], expected[~alone].sum())
        assert expected[-1] >= 5 and expected.size > 50
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert statistic < chi2_dist.ppf(1.0 - 0.001, df=expected.size - 1)

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


class _Replay:
    """Stands in for an RngKey and for its generator: serves the uniforms
    of draws in order, row after row."""

    def __init__(self, draws):
        self.flat = iter(np.asarray(draws).ravel().tolist())

    def generator(self):
        return self

    def random(self, size=None):
        if size is None:
            return next(self.flat)
        return np.array([next(self.flat) for _ in range(size)])


def _as_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _step_threshold(step, net, z, node):
    """The threshold a step function compares its draw with in state z: the
    least u in [0, 1] whose step leaves the node as u = 1.0 does, found by
    bisection over the bit patterns, which order non-negative floats."""
    def outcome(bits):
        return step(net, z, node, _Replay([_as_float(bits)]))[node]

    lo, hi = -1, struct.unpack("<q", struct.pack("<d", 1.0))[0]
    stay = outcome(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outcome(mid) == stay:
            hi = mid
        else:
            lo = mid
    return _as_float(hi)


def _draws_on_thresholds(net, sweeps, dynamics, scan, seed):
    """Uniforms for a run of sweeps in which about 30% of the update draws
    equal the reference step function's threshold at that point of the run
    (thresholds of 1.0, which the generator never draws, excepted)."""
    n = net.n_nodes
    step = glauber_step if dynamics == "glauber" else metropolis_step
    rng = np.random.default_rng(seed)
    draws = rng.random((sweeps, ising_mod.uniforms_per_sweep(n, scan)))
    z = np.zeros(n, dtype=np.uint8)
    for row in draws:
        order = range(n) if scan == "fixed" else np.argsort(row[:n], kind="stable")
        updates = row[:n] if scan == "fixed" else row[n : 2 * n]
        for pos, j in enumerate(order):
            if rng.random() < 0.3:
                threshold = _step_threshold(step, net, z, int(j))
                if threshold < 1.0:
                    updates[pos] = threshold
            z = step(net, z, int(j), _Replay(updates[pos : pos + 1]))
    return draws


class TestOneThreshold:
    """Tables, lookup rows and the reference step functions take every
    threshold from one routine, so they agree exactly, even on draws that
    equal a threshold, where u < t fails by no margin at all."""

    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_every_table_entry_equals_its_single_state_threshold(self, n, dynamics):
        net = _random_net(n, seed=60 + n, low=-0.6, high=0.6, field_span=1.0)
        tables = ising_mod._Blocks(net, dynamics, "fixed").rows
        for j, table in enumerate(tables):
            row = ising_mod._LookupRow(net, j, dynamics == "glauber")
            assert table == [row[idx] for idx in range(2**n)]
        rng = np.random.default_rng(n)
        step = glauber_step if dynamics == "glauber" else metropolis_step
        for idx, j in zip(rng.integers(0, 2**n, 40).tolist(), rng.integers(0, n, 40).tolist()):
            z = (idx >> np.arange(n)) & 1
            assert tables[j][idx] == _step_threshold(step, net, z, j)
            if dynamics == "glauber":
                assert tables[j][idx] == conditional_prob(net, z, j)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n, sweeps", [(5, 60), (8, 30), (12, 20), (13, 20)])
    def test_draws_equal_to_step_thresholds(self, monkeypatch, n, sweeps, dynamics, scan):
        # The per-site loop over tables (n <= 12) or lookup rows (n = 13),
        # the block sampler in one block and in blocks of 3 sweeps, and the
        # per-site reference through the reference step functions must take
        # the same path.
        net = _random_net(n, seed=50 + n, low=-0.6, high=0.6, field_span=1.0)
        draws = _draws_on_thresholds(net, sweeps, dynamics, scan, seed=50 + n)
        _assert_paths_agree(monkeypatch, net, draws, dynamics, scan)


def _assert_paths_agree(monkeypatch, net, draws, dynamics, scan):
    """The per-site reference, the per-site loop and the block sampler in
    blocks of _BLOCK and of 3 sweeps take the same path on draws."""
    n = net.n_nodes
    latent, _ = _per_site_reference(net, len(draws), _Replay(draws), dynamics, scan)
    want = (latent.astype(np.int64) << np.arange(n)).sum(axis=1).tolist()
    assert ising_mod._sweep_sites(_loop_rows(net, dynamics), draws, scan,
                                  dynamics == "metropolis", 0) == want
    for block in (ising_mod._BLOCK, 3):
        monkeypatch.setattr(ising_mod, "_BLOCK", block)
        assert ising_mod._Blocks(net, dynamics, scan).chunk(draws, 0).tolist() == want


def _loop_rows(net, dynamics):
    """The thresholds as the per-site loop reads them."""
    return ising_mod._Blocks(net, dynamics, "fixed").rows


def _loop_states(net, sweeps, key, dynamics, scan):
    """The state index after each sweep of the per-site loop over the
    run's whole stream at once."""
    draws = key.generator().random((sweeps, ising_mod.uniforms_per_sweep(net.n_nodes, scan)))
    return ising_mod._sweep_sites(_loop_rows(net, dynamics), draws, scan,
                                  dynamics == "metropolis", 0)


class TestBlockSampler:
    """Each chunk runs as blocks of sweeps side by side, all but the first
    from a guessed start, and is repaired exactly; the per-site loop
    finishes a chunk whose blocks still disagree after the repair rounds.
    These inputs reach each of those paths."""

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [4, 13])
    def test_matches_the_per_site_loop_across_chunks(self, monkeypatch, n, dynamics, scan):
        # Chunks of 100 sweeps hold three whole blocks and one of 4 sweeps,
        # padded; the run ends in a chunk of 37.
        net = _random_net(n, seed=33, low=-1.0, high=1.0, field_span=1.0)
        monkeypatch.setattr(ising_mod, "_CHUNK", 100)
        trace = simulate_field(net, 937, RngKey(33), dynamics=dynamics, scan=scan)
        assert trace.states.tolist() == _loop_states(net, 937, RngKey(33), dynamics, scan)
        assert trace.work["rerun_sweeps"] > 0

    @pytest.mark.parametrize("sweeps", [1, 2, 31])
    @pytest.mark.parametrize("n", [3, 13])
    def test_runs_shorter_than_one_block(self, n, sweeps):
        net = _random_net(n, seed=34, low=-1.0, high=1.0, field_span=1.0, guess=0.2)
        for dynamics in ("glauber", "metropolis"):
            for scan in ("fixed", "random"):
                key = RngKey(34, (sweeps,))
                latent, emitted = _per_site_reference(net, sweeps, key, dynamics, scan)
                trace = simulate_field(net, sweeps, key, dynamics=dynamics, scan=scan)
                np.testing.assert_array_equal(trace.latent, latent)
                np.testing.assert_array_equal(trace.emitted, emitted)
                assert trace.work["rerun_sweeps"] == trace.work["serial_sweeps"] == 0

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    def test_strongly_coupled_glauber_network(self, scan):
        # Couplings of 2 and fields of -5 hold a chain near all-unmastered
        # or all-mastered, equally likely, for hundreds of sweeps, so a
        # guess from the wrong side meets the chain late: some blocks are
        # repaired and some chunks finished on the per-site loop.
        n = 6
        net = _net(2.0 * (1 - np.eye(n)), [-5.0] * n)
        trace = simulate_field(net, 5000, RngKey(35), scan=scan)
        assert trace.states.tolist() == _loop_states(net, 5000, RngKey(35), "glauber", scan)
        assert trace.work["rerun_sweeps"] > 0 and trace.work["serial_sweeps"] > 0

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    def test_a_chain_that_never_meets_itself_runs_on_the_loop(self, scan):
        # Metropolis with no field and no coupling flips every node every
        # sweep, so chains from two states never meet: after the repair
        # rounds the per-site loop runs the rest of every chunk.
        net = IsingNetwork.from_dict({"n": 4})
        key = RngKey(36)
        trace = simulate_field(net, 2000, key, dynamics="metropolis", scan=scan)
        assert trace.work["serial_sweeps"] > 0
        assert trace.flip_rate() == 1.0
        latent, emitted = _per_site_reference(net, 2000, key, "metropolis", scan)
        np.testing.assert_array_equal(trace.latent, latent)
        np.testing.assert_array_equal(trace.emitted, emitted)

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [4, 13])
    def test_thresholds_of_exactly_zero_and_one(self, monkeypatch, n, dynamics, scan):
        # Fields of +-1000 put thresholds at exactly 0.0 (exp and logistic
        # underflow) and 1.0 (downhill moves, logistic overflow); update
        # draws are taken from those, the network's other thresholds, and
        # the least and greatest draws the generator makes.
        base = _random_net(n, seed=46, low=-1.0, high=1.0)
        net = _net(base.couplings, [-1000.0, 1000.0] + [0.3, -0.2] * (n // 2 - 1) + [0.1] * (n % 2))
        values = np.array([0.0, 5e-324, 1.0 - 2**-53])
        if n <= ising_mod._TABLE_MAX_NODES:
            tables = ising_mod._Blocks(net, dynamics, scan).table
            assert 0.0 in tables and 1.0 in tables
            values = np.concatenate([values, np.unique(tables)])
        rng = np.random.default_rng(46)
        draws = rng.random((200, ising_mod.uniforms_per_sweep(n, scan)))
        update = slice(0, n) if scan == "fixed" else slice(n, 2 * n)
        draws[:, update] = rng.choice(values, size=(200, n))
        _assert_paths_agree(monkeypatch, net, draws, dynamics, scan)

    @pytest.mark.parametrize("dynamics", ["glauber", "metropolis"])
    @pytest.mark.parametrize("n", [5, 13])
    def test_zero_fields_of_either_sign(self, monkeypatch, n, dynamics):
        # _lookup adds 0.0 for each bit not set, in the table (n = 5) and
        # in each lane (n = 13), so a field of -0.0 can come out as 0.0,
        # whose threshold is the same: 0.5 under Glauber and 1.0 under
        # Metropolis.
        base = _random_net(n, seed=37, low=-0.6, high=0.6)
        net = _net(base.couplings, ([-0.0, 0.0] * n)[:n])
        draws = _draws_on_thresholds(net, 40, dynamics, "fixed", seed=37)
        _assert_paths_agree(monkeypatch, net, draws, dynamics, "fixed")
