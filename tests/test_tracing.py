"""Filter vs path enumeration, EM monotonicity, constraints, recovery."""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bktirt import (
    BktParams,
    ResponsePanel,
    RngKey,
    build_matrices,
    fit_baum_welch,
    forward_filter,
    sample_trajectory,
)
from bktirt.errors import InvalidInit, OutOfRange, UnknownSkill, ZeroLikelihood
from reference import sequence_loglik


def _loglik_bruteforce(params, responses):
    """Sum over all 2^T latent paths of init * transitions * emissions."""
    transition, emission = build_matrices(params)
    init = np.array([1.0 - params.p_init, params.p_init])
    total = 0.0
    for path in itertools.product((0, 1), repeat=len(responses)):
        prob = init[path[0]] * emission[path[0], responses[0]]
        for t in range(1, len(responses)):
            prob *= transition[path[t - 1], path[t]] * emission[path[t], responses[t]]
        total += prob
    return math.log(total)


def _classic_filter_by_enumeration(params, responses):
    """Posterior mastery after each attempt, and the log-likelihood, by
    enumerating latent paths of a chain without forgetting.

    With p_forget = 0 a path is unmastered up to some attempt and mastered
    from then on, so its switch attempt (or none) indexes every path of
    nonzero probability: T + 1 paths instead of 2^T.
    """
    _, emission = build_matrices(params)

    def switch_prior(k):  # P(first mastered at attempt k + 1), 0-based k
        if k == 0:
            return params.p_init
        return (1.0 - params.p_init) * (1.0 - params.p_learn) ** (k - 1) * params.p_learn

    posteriors = []
    for t in range(1, len(responses) + 1):
        mastered = sum(
            switch_prior(k)
            * math.prod(emission[0, x] for x in responses[:k])
            * math.prod(emission[1, x] for x in responses[k:t])
            for k in range(t)
        )
        unmastered = (
            (1.0 - params.p_init)
            * (1.0 - params.p_learn) ** (t - 1)
            * math.prod(emission[0, x] for x in responses[:t])
        )
        posteriors.append(mastered / (mastered + unmastered))
    return np.array(posteriors), math.log(mastered + unmastered)


def _panel_from_sequences(sequences, skill_id=7):
    records = []
    for person, seq in enumerate(sequences):
        for attempt, correct in enumerate(seq, start=1):
            records.append((person, 0, skill_id, attempt, correct))
    return ResponsePanel(records)


def _packed(sequences):
    """Packed responses x and step sizes of these 0/1 sequences."""
    from bktirt.tracing import _pack_runs

    return _pack_runs(np.concatenate(sequences), np.array([len(seq) for seq in sequences]))


def _simulated_panel(truth, n_seq, length, seed, skill_id=7):
    key = RngKey(seed)
    sequences = [
        sample_trajectory(truth, length, key.child(n)).emitted.tolist()
        for n in range(n_seq)
    ]
    return _panel_from_sequences(sequences, skill_id)


class TestForwardFilter:
    def test_single_correct_response(self):
        params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        result = forward_filter(params, [1])
        assert result.predictive[0] == pytest.approx(0.34, abs=1e-12)
        assert result.log_likelihood == pytest.approx(math.log(0.34), abs=1e-12)

    def test_noiseless_mastered_chain(self):
        params = BktParams(1.0, 0.3, 0.0, 0.0, 0.0)
        result = forward_filter(params, [1, 1, 1])
        np.testing.assert_allclose(result.posterior, 1.0)
        assert result.log_likelihood == 0.0

    def test_impossible_response_raises(self):
        params = BktParams(0.0, 0.3, 0.0, 0.1, 0.0)
        with pytest.raises(ZeroLikelihood):
            forward_filter(params, [1])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            forward_filter(BktParams(0.2, 0.3, 0.0, 0.1, 0.2), [])

    def test_predictive_ignores_current_response(self):
        # p(t) conditions only on the past, so flipping x_t changes the
        # realized probability to its complement but not the prediction.
        rng = np.random.default_rng(50)
        for _ in range(50):
            params = BktParams(*rng.uniform(0.05, 0.95, size=5))
            responses = rng.integers(0, 2, size=12).tolist()
            base = forward_filter(params, responses)
            for t in range(12):
                flipped = list(responses)
                flipped[t] = 1 - flipped[t]
                other = forward_filter(params, flipped)
                assert other.predictive[t] == pytest.approx(base.predictive[t], abs=1e-12)
                both = base.predictive[t] + (1.0 - base.predictive[t])
                assert both == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            params = BktParams(*rng.uniform(0.05, 0.95, size=5))
            length = int(rng.integers(1, 11))
            responses = rng.integers(0, 2, size=length).tolist()
            want = _loglik_bruteforce(params, responses)
            got = forward_filter(params, responses).log_likelihood
            assert abs(got - want) < 1e-10

    def test_rejects_responses_other_than_zero_and_one(self):
        params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        with pytest.raises(OutOfRange, match="attempt 3"):
            forward_filter(params, [1, 0, 5])
        with pytest.raises(OutOfRange):
            forward_filter(params, [0.5])

    @pytest.mark.parametrize("bad", [2, 0.5, math.nan, "1", None, [0]])
    def test_first_bad_response_named_at_attempt_50000(self, bad):
        params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        responses = [1, 0] * 24999 + [1, bad, 7]
        message = rf"response {re.escape(repr(bad))} at attempt 50000 "
        with pytest.raises(OutOfRange, match=message):
            forward_filter(params, responses)

    def test_accepts_what_membership_in_zero_one_accepts(self):
        params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        mixed = [True, False, 1.0, 0.0, -0.0, np.int64(1), np.float32(0), np.bool_(True)]
        want = forward_filter(params, [1, 0, 1, 0, 0, 1, 0, 1])
        got = forward_filter(params, mixed)
        np.testing.assert_array_equal(got.posterior, want.posterior)

    def test_complex_responses_without_imaginary_part_raise_no_warning(self):
        # Accepted like 1 == 1+0j; they used to reach the int8 cast as
        # complex and make numpy warn that the imaginary part is dropped.
        params = BktParams(0.3, 0.2, 0.1, 0.15, 0.15)
        want = forward_filter(params, [1, 1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for responses in ([1, 1 + 0j, 0j], np.array([1, 1, 0], dtype=complex),
                              [1 + 0j, True, Fraction(0)]):
                got = forward_filter(params, responses)
                np.testing.assert_array_equal(got.posterior, want.posterior)
        with pytest.raises(OutOfRange, match=r"response 1j at attempt 2 "):
            forward_filter(params, [1, 1j])

    @pytest.mark.parametrize("n_zeros", [20, 30])
    def test_certain_mastery_then_errors_matches_enumeration(self, n_zeros):
        # Without forgetting, 40 correct answers drive the mastery
        # probability to 1.0 in floating point; the errors that follow must
        # leave every posterior in [0, 1] and raise no ZeroLikelihood.
        params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        responses = [1] * 40 + [0] * n_zeros
        result = forward_filter(params, responses)
        assert np.all((result.posterior >= 0.0) & (result.posterior <= 1.0))
        want_post, want_ll = _classic_filter_by_enumeration(params, responses)
        assert np.max(np.abs(result.posterior - want_post)) < 1e-10
        assert abs(result.log_likelihood - want_ll) < 1e-10

    def test_probabilities_stay_in_unit_interval(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            params = BktParams(*rng.uniform(0.01, 0.99, size=5))
            responses = rng.integers(0, 2, size=30).tolist()
            result = forward_filter(params, responses)
            assert np.all((result.posterior >= 0) & (result.posterior <= 1))
            assert np.all((result.predictive >= 0) & (result.predictive <= 1))


class TestSequenceLoglik:
    def test_single_sequence_matches_filter(self):
        params = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        panel = _panel_from_sequences([[1]])
        assert sequence_loglik(params, panel, 7) == pytest.approx(
            math.log(0.34), abs=1e-12
        )

    def test_identical_persons_double_the_value(self):
        params = BktParams(0.2, 0.3, 0.1, 0.1, 0.2)
        single = _panel_from_sequences([[1, 0, 1]])
        double = _panel_from_sequences([[1, 0, 1], [1, 0, 1]])
        assert sequence_loglik(params, double, 7) == pytest.approx(
            2.0 * sequence_loglik(params, single, 7), abs=1e-12
        )

    def test_unknown_skill_rejected(self):
        panel = _panel_from_sequences([[1, 0]])
        with pytest.raises(UnknownSkill):
            sequence_loglik(BktParams(0.2, 0.3, 0.0, 0.1, 0.2), panel, 99)


class TestFitBaumWelch:
    def test_invalid_init_rejected(self):
        panel = _panel_from_sequences([[1, 0, 1]])
        with pytest.raises(InvalidInit):
            fit_baum_welch(
                panel, 7, BktParams(0.2, 0.3, 0.0, 0.6, 0.2), identified=True
            )
        with pytest.raises(InvalidInit):
            fit_baum_welch(panel, 7, BktParams(0.2, 0.3, 0.1, 0.1, 0.2), classic=True)

    def test_nonpositive_tol_rejected(self):
        panel = _panel_from_sequences([[1, 0, 1]])
        with pytest.raises(ValueError):
            fit_baum_welch(panel, 7, BktParams(0.2, 0.3, 0.0, 0.1, 0.2), tol=0.0)

    @pytest.mark.parametrize(
        "bad", [{"max_iters": -3}, {"max_iters": 0}, {"tol": math.nan},
                {"tol": math.inf}, {"tol": -1e-6}]
    )
    def test_invalid_em_arguments_rejected(self, bad):
        panel = _panel_from_sequences([[1, 0, 1]])
        with pytest.raises(ValueError, match=next(iter(bad))):
            fit_baum_welch(panel, 7, BktParams(0.2, 0.3, 0.0, 0.1, 0.2), **bad)

    def test_stop_reason_tolerance(self):
        panel = _simulated_panel(BktParams(0.3, 0.25, 0.05, 0.1, 0.15), 40, 12, seed=60)
        report = fit_baum_welch(panel, 7, BktParams(0.5, 0.1, 0.2, 0.3, 0.3), tol=1e-4)
        assert report.converged and report.iterations < 500
        assert report.stop_reason == "tolerance"
        assert json.loads(report.to_json())["stop_reason"] == "tolerance"

    def test_stop_reason_iteration_cap(self):
        panel = _simulated_panel(BktParams(0.3, 0.25, 0.05, 0.1, 0.15), 40, 12, seed=60)
        report = fit_baum_welch(
            panel, 7, BktParams(0.5, 0.1, 0.2, 0.3, 0.3), tol=1e-300, max_iters=3
        )
        assert not report.converged and report.iterations == 3
        assert report.stop_reason == "iteration_cap"

    def test_stop_reason_degenerate(self):
        panel = _panel_from_sequences([[1] * 8 for _ in range(10)])
        report = fit_baum_welch(panel, 7, BktParams(0.3, 0.2, 0.1, 0.2, 0.2))
        assert report.stop_reason == "degenerate"
        raw = json.loads(report.to_json())
        assert raw["stop_reason"] == "degenerate"
        assert "identical" in raw["degenerate_cause"]

    def test_only_a_degenerate_report_names_a_cause(self):
        panel = _simulated_panel(BktParams(0.3, 0.25, 0.05, 0.1, 0.15), 40, 12, seed=60)
        report = fit_baum_welch(panel, 7, BktParams(0.5, 0.1, 0.2, 0.3, 0.3), max_iters=3)
        assert report.degenerate_cause == ""
        assert "degenerate_cause" not in json.loads(report.to_json())

    def test_unknown_skill_rejected(self):
        panel = _panel_from_sequences([[1, 0, 1]])
        with pytest.raises(UnknownSkill):
            fit_baum_welch(panel, 99, BktParams(0.2, 0.3, 0.0, 0.1, 0.2))

    def test_single_iteration_improves_loglik(self):
        truth = BktParams(0.3, 0.25, 0.05, 0.1, 0.15)
        panel = _simulated_panel(truth, 40, 12, seed=60)
        report = fit_baum_welch(
            panel, 7, BktParams(0.5, 0.1, 0.2, 0.3, 0.3), max_iters=1
        )
        assert report.iterations == 1
        assert report.loglik_trace[1] >= report.loglik_trace[0] - 1e-9

    def test_trace_monotone_over_fuzzed_inits(self):
        truth = BktParams(0.3, 0.25, 0.05, 0.1, 0.15)
        panel = _simulated_panel(truth, 30, 10, seed=61)
        rng = np.random.default_rng(62)
        for _ in range(30):
            init = BktParams(*rng.uniform(0.05, 0.45, size=5))
            report = fit_baum_welch(panel, 7, init, max_iters=60)
            trace = np.array(report.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_trace_monotone_under_constraints(self):
        truth = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        panel = _simulated_panel(truth, 40, 15, seed=63)
        rng = np.random.default_rng(64)
        for _ in range(15):
            raw = rng.uniform(0.05, 0.45, size=5)
            init = BktParams(raw[0], raw[1], 0.0, raw[3], raw[4])
            report = fit_baum_welch(
                panel, 7, init, classic=True, identified=True, max_iters=80
            )
            trace = np.array(report.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_classic_pins_forgetting_to_zero(self):
        truth = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        panel = _simulated_panel(truth, 50, 12, seed=65)
        report = fit_baum_welch(
            panel, 7, BktParams(0.3, 0.2, 0.0, 0.2, 0.2), classic=True
        )
        assert report.params.p_forget == 0.0
        assert report.constraint_set == ("classic",)

    def test_identified_caps_guess_and_slip(self):
        # All-correct data pushes the unconstrained guess estimate up; the
        # identified cap must hold it strictly below one half.
        panel = _panel_from_sequences([[1] * 10 for _ in range(20)])
        report = fit_baum_welch(
            panel, 7, BktParams(0.3, 0.2, 0.1, 0.2, 0.2), identified=True
        )
        assert report.params.p_guess < 0.5
        assert report.params.p_slip < 0.5

    def test_degenerate_panel_flagged_when_unconstrained(self):
        panel = _panel_from_sequences([[1] * 8 for _ in range(10)])
        report = fit_baum_welch(panel, 7, BktParams(0.3, 0.2, 0.1, 0.2, 0.2))
        assert report.degenerate_data
        assert not report.converged
        constrained = fit_baum_welch(
            panel, 7, BktParams(0.3, 0.2, 0.1, 0.2, 0.2), identified=True
        )
        assert not constrained.degenerate_data

    def test_label_swap_attains_identical_likelihood(self):
        # Swapping the latent labels maps the parameters to
        # (1-p_init, p_forget, p_learn, 1-p_guess, 1-p_slip) and cannot be
        # told apart by likelihood; the identified constraint keeps only one
        # member of the pair.
        rng = np.random.default_rng(66)
        panel = _panel_from_sequences(
            [rng.integers(0, 2, size=12).tolist() for _ in range(15)]
        )
        for _ in range(30):
            params = BktParams(*rng.uniform(0.05, 0.45, size=5))
            twin = BktParams(
                1.0 - params.p_init,
                params.p_forget,
                params.p_learn,
                1.0 - params.p_guess,
                1.0 - params.p_slip,
            )
            original = sequence_loglik(params, panel, 7)
            swapped = sequence_loglik(twin, panel, 7)
            assert swapped == pytest.approx(original, abs=1e-9)
            from bktirt import validate_bkt
            from bktirt.errors import Unidentified

            validate_bkt(params, identified=True)
            with pytest.raises(Unidentified):
                validate_bkt(twin, identified=True)

    def test_recovers_simulated_parameters(self):
        truth = BktParams(0.2, 0.3, 0.0, 0.1, 0.2)
        panel = _simulated_panel(truth, 500, 20, seed=67)
        report = fit_baum_welch(
            panel,
            7,
            BktParams(0.4, 0.15, 0.0, 0.2, 0.3),
            classic=True,
            identified=True,
        )
        assert report.converged
        for name in ("p_init", "p_learn", "p_forget", "p_slip", "p_guess"):
            assert abs(getattr(report.params, name) - getattr(truth, name)) < 0.05

    def test_handles_ragged_sequence_lengths(self):
        truth = BktParams(0.3, 0.25, 0.05, 0.1, 0.15)
        key = RngKey(68)
        sequences = [
            sample_trajectory(truth, 5 + (n % 7), key.child(n)).emitted.tolist()
            for n in range(60)
        ]
        panel = _panel_from_sequences(sequences)
        report = fit_baum_welch(panel, 7, BktParams(0.4, 0.15, 0.1, 0.2, 0.2))
        trace = np.array(report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9)
        # The E-step's log-likelihood must agree with the forward pass over
        # the packed block, and that with the filter run per sequence.
        direct = sequence_loglik(report.params, panel, 7)
        assert trace[-1] == pytest.approx(direct, abs=1e-8)
        per_sequence = sum(
            forward_filter(report.params, seq).log_likelihood for seq in sequences
        )
        assert direct == pytest.approx(per_sequence, abs=1e-8)

    def test_report_json_round_trip(self):
        panel = _panel_from_sequences([[1, 0, 1], [0, 1, 1]])
        report = fit_baum_welch(panel, 7, BktParams(0.3, 0.2, 0.1, 0.2, 0.2), max_iters=5)
        raw = json.loads(report.to_json())
        assert raw["iterations"] == report.iterations
        assert raw["params"]["p_learn"] == report.params.p_learn
        assert len(raw["loglik_trace"]) == len(report.loglik_trace)


def _brute_em_step(params, sequences):
    """One EM update computed from exact posteriors over all latent paths."""
    transition, emission = build_matrices(params)
    init = np.array([1.0 - params.p_init, params.p_init])
    e_init1 = e_from0 = e_xi01 = e_from1 = e_xi10 = 0.0
    e_occ0 = e_corr0 = e_occ1 = e_wrong1 = 0.0
    for seq in sequences:
        length = len(seq)
        joint = {}
        total = 0.0
        for path in itertools.product((0, 1), repeat=length):
            prob = init[path[0]] * emission[path[0], seq[0]]
            for t in range(1, length):
                prob *= transition[path[t - 1], path[t]] * emission[path[t], seq[t]]
            joint[path] = prob
            total += prob
        for path, prob in joint.items():
            w = prob / total
            e_init1 += w * path[0]
            for t in range(length):
                if path[t] == 0:
                    e_occ0 += w
                    e_corr0 += w * seq[t]
                else:
                    e_occ1 += w
                    e_wrong1 += w * (1 - seq[t])
            for t in range(length - 1):
                if path[t] == 0:
                    e_from0 += w
                    e_xi01 += w * (path[t + 1] == 1)
                else:
                    e_from1 += w
                    e_xi10 += w * (path[t + 1] == 0)
    n = len(sequences)
    return (
        e_init1 / n,
        e_xi01 / e_from0,
        e_xi10 / e_from1,
        e_wrong1 / e_occ1,
        e_corr0 / e_occ0,
    )


def test_estep_expected_counts_match_path_enumeration():
    from bktirt.tracing import _block, _counts, _forward, _mstep

    rng = np.random.default_rng(77)
    for _ in range(20):
        params = BktParams(*rng.uniform(0.05, 0.95, size=5))
        sequences = [
            rng.integers(0, 2, size=int(rng.integers(1, 7))).tolist()
            for _ in range(5)
        ]
        block = _block(*_packed(sequences))
        counts = _counts(params, block, _forward(params, block))
        updated = _mstep(counts, params, classic=False, identified=False)
        want = _brute_em_step(params, sequences)
        got = (
            updated.p_init,
            updated.p_learn,
            updated.p_forget,
            updated.p_slip,
            updated.p_guess,
        )
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


class TestSegmentAndStitch:
    """Blocks cut into segments must give the uncut pass's numbers."""

    def test_cut_block_matches_uncut_loop(self):
        from bktirt.tracing import _block, _counts, _forward, _loglik

        rng = np.random.default_rng(78)
        for _ in range(30):
            length = int(rng.integers(2, 9))
            lengths = [1, length, length + 1, 2 * length, 3 * length, 5 * length + 2]
            lengths += rng.integers(1, 12 * length, size=int(rng.integers(0, 12))).tolist()
            sequences = [rng.integers(0, 2, size=n).tolist() for n in lengths]
            params = BktParams(*rng.uniform(0.02, 0.98, size=5))
            x, sizes = _packed(sequences)
            whole, cut = _block(x, sizes, sizes.size), _block(x, sizes, length)
            assert whole.segments == 0 and cut.segments > 0

            unstitched, stitched = _forward(params, whole), _forward(params, cut)
            for want, got in zip(unstitched, stitched):
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            assert np.all((stitched[0] >= 0.0) & (stitched[0] <= 1.0))

            want_ll, got_ll = _loglik(unstitched), _loglik(stitched)
            want, got = _counts(params, whole, unstitched), _counts(params, cut, stitched)
            assert abs(got_ll - want_ll) <= 1e-12 * abs(want_ll)
            assert list(got) == list(want)
            for name in want:
                for a, b in zip(want[name], got[name]):
                    assert abs(b - a) <= 1e-12 * abs(a), name

    def test_cut_only_when_it_pays(self):
        from bktirt.tracing import _block

        # Many short sequences are never cut; 16 sequences of 3,000 attempts
        # are cut into segments of 55: each into its first and 54 later ones.
        # A fit reports the cut of the block it ran on.
        rng = np.random.default_rng(79)
        wide = rng.integers(5, 61, size=3000)
        init = BktParams(0.3, 0.2, 0.1, 0.15, 0.15)
        for lengths, segments in ((wide, 0), ([3000] * 16, 16 * 54), ([10], 0)):
            lengths = np.asarray(lengths)
            sequences = [rng.integers(0, 2, size=n) for n in lengths]
            report = fit_baum_welch(_panel_from_sequences(sequences), 7, init, max_iters=1)
            assert _block(*_packed(sequences)).segments == report.work["cut_segments"] == segments

    def test_a_fit_builds_its_block_once(self, monkeypatch):
        # Every E-step reuses the block the fit built: a build per pass
        # would redo the cut's arithmetic on each of them.
        import bktirt.tracing as tracing

        calls = []

        def counting(*args, _build=tracing._block, **kwargs):
            calls.append(args)
            return _build(*args, **kwargs)

        truth = BktParams(0.2, 0.1, 0.05, 0.1, 0.2)
        panel = _simulated_panel(truth, 16, 3000, seed=80)
        monkeypatch.setattr(tracing, "_block", counting)
        init = BktParams(0.3, 0.2, 0.1, 0.15, 0.15)
        report = fit_baum_welch(panel, 7, init, max_iters=5)
        assert report.iterations == 5 and report.work["cut_segments"] == 16 * 54
        assert len(calls) == 1

    def test_work_stays_out_of_equality_hashing_and_json(self):
        sequences = [[1, 0, 1], [0], [1, 1]]
        init = BktParams(0.3, 0.2, 0.1, 0.15, 0.15)
        report = fit_baum_welch(_panel_from_sequences(sequences), 7, init, max_iters=2)
        assert report.work == {"sequences": 3, "responses": 6, "cut_segments": 0}
        fields = {name: getattr(report, name) for name in type(report).__slots__}
        bare = type(report)(**{**fields, "work": {}})
        assert bare == report and hash(bare) == hash(report)
        assert bare.to_json() == report.to_json()
        assert "work" not in json.loads(report.to_json())

    def test_zero_likelihood_in_a_later_segment_names_its_attempt(self):
        from bktirt.tracing import _block, _forward

        params = BktParams(0.0, 0.0, 0.0, 0.1, 0.0)
        responses = [0] * 5000
        responses[4320] = 1
        x, sizes = _packed([responses])
        cut = _block(x, sizes)
        assert cut.length < 4321
        message = "response 1 at attempt 4321 has probability 0"
        with pytest.raises(ZeroLikelihood, match=message):
            forward_filter(params, responses)
        with pytest.raises(ZeroLikelihood, match=message):
            sequence_loglik(params, _panel_from_sequences([responses, [0, 0]]), 7)
        # The forward pass that starts each E-step of fit_baum_welch, on
        # parameters it has not nudged.
        for block in (cut, _block(x, sizes, sizes.size)):
            with pytest.raises(ZeroLikelihood, match=message):
                _forward(params, block)

    def test_prior_on_an_underflowed_start_state(self):
        # Mastered from the start and never forgetting, every response a
        # slip: the start-unmastered row of each later segment's matrix
        # outweighs the start-mastered row by far more than the float
        # range, while the segment prior is all on the mastered state.
        params = BktParams(1.0, 0.1, 0.0, 1e-16, 0.2)
        result = forward_filter(params, [0] * 400)
        assert np.all(result.posterior == 1.0)
        assert result.log_likelihood == pytest.approx(400 * math.log(1e-16), rel=1e-12)
