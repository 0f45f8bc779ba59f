"""Independent output checks, one per job type.

Each check reads the files a CLI command wrote and returns None when the
output is right, or a one-line reason when it is not. None of them reuses the
code path it checks: the experiment check computes the exact expectation in
closed form, the long-panel fit check runs its own scaled forward-backward EM,
and the Ising check enumerates the Boltzmann law itself.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Family-wise false-alarm probability of the experiment's binomial tests. It
# is fixed, not per seed: at 1e-6 a campaign of a few hundred seeded runs has
# a negligible chance of one spurious failure.
EXPERIMENT_ALPHA = 1e-6

# EM fit: the log-likelihood trace may dip by rounding only, and every
# recovered component must lie this close to the generating value.
FIT_TRACE_SLACK = 1e-9
FIT_TOLERANCE = 0.05

# Long-panel EM against the benchmark's own EM from the same start, after the
# same number of iterations: parameters and log-likelihoods agree to rounding.
EM_PARAM_TOLERANCE = 1e-9
EM_LOGLIK_TOLERANCE = 1e-10

# Total-variation bounds against the exact Boltzmann law, about 6x and 2x the
# largest distance seen over twelve seeds (0.0017 and 0.043): the table path
# at 10^6 sweeps is close to exact, the random-scan path at 2*10^4 sweeps is
# dominated by sampling noise over 256 states.
ISING_TV_BOUND = {"fixed": 0.01, "random": 0.08}
EXACT_TOLERANCE = 1e-12


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _binomial_log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Twice the smaller exact tail of Binomial(n, p) at k, capped at 1."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    step = -1 if k <= n * p else 1
    log_first = _binomial_log_pmf(k, n, p)
    tail = 0.0
    j = k
    while 0 <= j <= n:
        term = math.exp(_binomial_log_pmf(j, n, p) - log_first)
        tail += term
        if term < 1e-17 * tail:
            break
        j += step
    return min(1.0, 2.0 * tail * math.exp(log_first))


def check_experiment(curves_path: str, config, population) -> str | None:
    """Per-bin correct counts against the exact expectation.

    For a pair (person p, item i) started unmastered, the mastered mass after
    t steps is lambda1 * (1 - r^t) with lambda1 = l / (l + f) and
    r = 1 - l - f, so P(correct) = g + (1 - s - g) * m_t. A bin's correct
    count is a sum of independent Bernoulli draws with those means; by
    Hoeffding (1956) its tails are no heavier than those of the binomial with
    the pooled mean, so an exact binomial test at that mean is valid. The
    tests run at a Bonferroni-corrected family-wise alpha, and the
    observation count of every bin must equal replications x pairs exactly.
    """
    learn = population.p_learn[:, None]
    forget = population.p_forget[None, :]
    lam1 = learn / (learn + forget)
    r = 1.0 - learn - forget
    width = config.bin_width
    k_max = int(math.floor(8.0 / width))
    advantage = population.theta[:, None] - population.b[None, :]
    bins = np.clip(np.rint(advantage / width).astype(np.int64), -k_max, k_max)
    pairs_per_bin = np.bincount((bins + k_max).ravel(), minlength=2 * k_max + 1)

    rows = _read_csv(curves_path)
    cells = []
    for t in sorted(set(config.iteration_counts)):
        p_pair = config.p_guess + (1.0 - config.p_slip - config.p_guess) * lam1 * (1.0 - r**t)
        expected_sum = np.bincount(
            (bins + k_max).ravel(), weights=p_pair.ravel(), minlength=2 * k_max + 1
        )
        got = {
            int(round(float(row["bin_center"]) / width)) + k_max: row
            for row in rows
            if int(row["iterations"]) == t
        }
        want = set(np.flatnonzero(pairs_per_bin).tolist())
        if set(got) != want:
            return f"t={t}: bins {sorted(got)} in the CSV, expected {sorted(want)}"
        for idx in sorted(want):
            n_obs = int(got[idx]["n_obs"])
            if n_obs != config.replications * int(pairs_per_bin[idx]):
                return f"t={t} bin {idx - k_max}: n_obs {n_obs} != reps x pairs"
            correct = float(got[idx]["prop_correct"]) * n_obs
            if abs(correct - round(correct)) > 1e-6:
                return f"t={t} bin {idx - k_max}: prop_correct is not a count ratio"
            cells.append((t, idx - k_max, round(correct), n_obs, expected_sum[idx] / pairs_per_bin[idx]))

    # Cells within 3 sigma pass without the exact tail: their two-sided
    # p-value is far above any Bonferroni threshold used here.
    threshold = EXPERIMENT_ALPHA / len(cells)
    for t, center, k, n, p in cells:
        sigma = math.sqrt(n * p * (1.0 - p))
        if sigma > 0.0 and abs(k - n * p) < 3.0 * sigma:
            continue
        p_value = binomial_two_sided_p(k, n, p)
        if p_value < threshold:
            return (
                f"t={t} bin {center}: {k}/{n} correct, expected {n * p:.1f} "
                f"(two-sided p={p_value:.3g} < {threshold:.3g})"
            )
    return None


def _trace_dip(trace: list[float]) -> str | None:
    dips = [b - a for a, b in zip(trace, trace[1:]) if b - a < -FIT_TRACE_SLACK]
    return f"log-likelihood trace decreases by {min(dips):.3g}" if dips else None


def check_fit(report_path: str, truth: dict[str, float]) -> str | None:
    """Monotone EM trace and every component within 0.05 of the truth."""
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    reason = _trace_dip(report["loglik_trace"])
    if reason is not None:
        return reason
    for name, value in truth.items():
        got = report["params"][name]
        if not abs(got - value) <= FIT_TOLERANCE:
            return f"{name}: fitted {got:.4f}, truth {value:.4f}"
    return None


def reference_em(init: dict[str, float], x: np.ndarray, iterations: int
                 ) -> tuple[dict[str, float], list[float]]:
    """Unconstrained Baum-Welch on equal-length sequences ``x`` (learners by
    attempts, 0/1), in the scaled form of Rabiner (1989) with a 2x2
    transition matrix. Returns the parameters after ``iterations`` updates
    and the log-likelihood before each update and after the last.

    The program clamps guess and slip below 0.5 and keeps every estimate in
    [1e-9, 1 - 1e-9]; the long panel's estimates stay far inside both, so the
    clamps never act and are left out here.
    """
    p = dict(init)
    n, t_len = x.shape
    correct = x == 1
    trace = []
    for step in range(iterations + 1):
        trans = np.array([[1.0 - p["p_learn"], p["p_learn"]],
                          [p["p_forget"], 1.0 - p["p_forget"]]])
        emit = np.where(correct[..., None],
                        [p["p_guess"], 1.0 - p["p_slip"]],
                        [1.0 - p["p_guess"], p["p_slip"]])
        alpha = np.empty((n, t_len, 2))
        scale = np.empty((n, t_len))
        a = np.array([1.0 - p["p_init"], p["p_init"]]) * emit[:, 0]
        for t in range(t_len):
            if t:
                a = (alpha[:, t - 1] @ trans) * emit[:, t]
            scale[:, t] = a.sum(axis=1)
            alpha[:, t] = a / scale[:, t, None]
        trace.append(float(np.log(scale).sum()))
        if step == iterations:
            return p, trace
        beta = np.empty((n, t_len, 2))
        beta[:, -1] = 1.0
        for t in range(t_len - 2, -1, -1):
            beta[:, t] = (emit[:, t + 1] * beta[:, t + 1]) @ trans.T / scale[:, t + 1, None]
        gamma = alpha * beta
        # xi[i, j] summed over learners and attempts.
        xi = np.einsum("nti,ij,ntj->ij", alpha[:, :-1], trans,
                       emit[:, 1:] * beta[:, 1:] / scale[:, 1:, None])
        leave = gamma[:, :-1].sum(axis=(0, 1))
        occupancy = gamma.sum(axis=(0, 1))
        p = {
            "p_init": float(gamma[:, 0, 1].mean()),
            "p_learn": float(xi[0, 1] / leave[0]),
            "p_forget": float(xi[1, 0] / leave[1]),
            "p_slip": float((gamma[..., 1] * ~correct).sum() / occupancy[1]),
            "p_guess": float((gamma[..., 0] * correct).sum() / occupancy[0]),
        }


def check_em(report_path: str, init: dict[str, float], x: np.ndarray) -> str | None:
    """Monotone EM trace; parameters and trace equal to ``reference_em``'s
    from the same start after the same number of iterations."""
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    trace = report["loglik_trace"]
    reason = _trace_dip(trace)
    if reason is not None:
        return reason
    iterations = report["iterations"]
    if iterations < 1 or len(trace) != iterations + 1:
        return f"{iterations} iterations with a trace of {len(trace)} entries"
    ref_params, ref_trace = reference_em(init, x, iterations)
    for name, value in ref_params.items():
        got = report["params"][name]
        if not abs(got - value) <= EM_PARAM_TOLERANCE:
            return f"{name}: fitted {got!r}, reference EM {value!r}"
    for i, (got, want) in enumerate(zip(trace, ref_trace)):
        if not abs(got - want) <= EM_LOGLIK_TOLERANCE * abs(want):
            return f"log-likelihood {i}: {got!r}, reference EM {want!r}"
    return None


def boltzmann(network: dict) -> np.ndarray:
    """Exact law over all 2^n states (node j = bit j of the state index)."""
    n = network["n"]
    states = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    log_weight = states @ np.asarray(network["fields"], dtype=float)
    for i, j, sigma in network["couplings"]:
        log_weight = log_weight + sigma * states[:, i] * states[:, j]
    weight = np.exp(log_weight - log_weight.max())
    return weight / weight.sum()


def check_ising(freq_path: str, network: dict, scan: str) -> str | None:
    """The exact column matches an independent enumeration, and the sampled
    frequencies lie within a fixed total-variation distance of it."""
    rows = _read_csv(freq_path)
    exact = boltzmann(network)
    if len(rows) != exact.size:
        return f"{len(rows)} states in the CSV, expected {exact.size}"
    freq = np.array([float(row["frequency"]) for row in rows])
    column = np.array([float(row["exact_prob"]) for row in rows])
    if not np.max(np.abs(column - exact)) <= EXACT_TOLERANCE:
        return f"exact column differs from enumeration by {np.max(np.abs(column - exact)):.3g}"
    tv = 0.5 * float(np.abs(freq - exact).sum())
    if not tv < ISING_TV_BOUND[scan]:
        return f"total-variation distance {tv:.4f} >= {ISING_TV_BOUND[scan]}"
    return None

