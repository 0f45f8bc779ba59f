"""Mastery inference and estimation: forward filtering and constrained EM.

The forward filter tracks the per-attempt posterior of the latent mastered
state; the EM fitter (expected-count Baum-Welch) estimates the five chain
probabilities from a response panel, optionally under the classic
(p_forget = 0) and identified (guess, slip < 0.5) constraints. Because the
complete-data likelihood separates per parameter, clamping each M-step
estimate to its constraint interval is the exact constrained M-step, so the
log-likelihood trace stays non-decreasing.

Filter, log-likelihood and E-step share one scaled forward pass and one
backward pass (Rabiner 1989) over a packed block of sequences: sorted
longest first, step t holds attempt t of the first sizes[t] sequences,
stored contiguously in time-major order. Each attempt is one vector step
over that active prefix, with no padding and no mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidInit,
    OutOfRange,
    UnknownSkill,
    ZeroLikelihood,
)
from .params import BktParams, ResponsePanel, validate_bkt

# Boundary estimates are nudged inside [BOUND, 1 - BOUND] before the next
# E-step so no realized response ever has exactly zero probability.
_BOUND = 1e-9
_IDENTIFIED_CAP = 0.5 - 1e-6


def _pack(sequences: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Packed layout of a list of 0/1 response sequences (see _pack_runs)."""
    return _pack_runs(np.concatenate(sequences), np.array([len(seq) for seq in sequences]))


def _pack_runs(flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed layout of 0/1 response sequences stored end to end: (x, sizes).

    Sequences are ranked by length, longest first (ties keep their order).
    sizes[t] is the number of sequences with an attempt t, and x holds those
    attempts of the first sizes[t] sequences, step after step.
    """
    rank = np.empty(lengths.size, dtype=np.intp)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    step = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    sizes = np.bincount(step)
    # The sequences with an attempt t are the first sizes[t] ranks.
    x = np.empty(flat.size, dtype=np.int8)
    x[(np.cumsum(sizes) - sizes)[step] + np.repeat(rank, lengths)] = flat
    return x, sizes


def _emissions(params: BktParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(x | mastered) and P(x | unmastered) per packed response."""
    correct = x == 1
    return (
        np.where(correct, 1.0 - params.p_slip, params.p_slip),
        np.where(correct, params.p_guess, 1.0 - params.p_guess),
    )


def _predict(params: BktParams, m, u):
    """One transition of the (mastered, unmastered) probabilities."""
    return (
        m * (1.0 - params.p_forget) + u * params.p_learn,
        m * params.p_forget + u * (1.0 - params.p_learn),
    )


def _forward(params: BktParams, x: np.ndarray, sizes: np.ndarray):
    """Scaled forward pass over a packed block.

    Returns, per response, the filtered mastered and unmastered
    probabilities, each its joint term over their sum, and the realized
    probability of the response given the attempts before it.
    """
    emit_m, emit_u = _emissions(params, x)
    alpha_m, alpha_u, realized = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    prior_m = np.full(sizes[0], params.p_init)
    prior_u = np.full(sizes[0], 1.0 - params.p_init)
    lo = 0
    # A zero realized probability poisons only its own sequence; it is
    # reported after the pass, at the earliest attempt it occurs.
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in sizes.tolist():
            hi = lo + n
            mass_m = prior_m[:n] * emit_m[lo:hi]
            mass_u = prior_u[:n] * emit_u[lo:hi]
            total = np.add(mass_m, mass_u, out=realized[lo:hi])
            m = np.divide(mass_m, total, out=alpha_m[lo:hi])
            u = np.divide(mass_u, total, out=alpha_u[lo:hi])
            prior_m, prior_u = _predict(params, m, u)
            lo = hi
    impossible = ~(realized > 0.0)
    if impossible.any():
        k = int(np.argmax(impossible))
        attempt = int(np.searchsorted(np.cumsum(sizes), k, side="right")) + 1
        raise ZeroLikelihood(
            f"response {int(x[k])} at attempt {attempt} has probability 0 under "
            "the given parameters"
        )
    return alpha_m, alpha_u, realized


def _backward(params: BktParams, w_m: np.ndarray, w_u: np.ndarray, sizes: np.ndarray):
    """Scaled backward pass over a packed block; w is emission / realized.

    beta is 1 at each sequence's last attempt.
    """
    beta_m, beta_u = np.ones(w_m.size), np.ones(w_m.size)
    starts = (np.cumsum(sizes) - sizes).tolist()
    for t in range(len(starts) - 2, -1, -1):
        n, lo, nxt = int(sizes[t + 1]), starts[t], starts[t + 1]
        msg_m = w_m[nxt : nxt + n] * beta_m[nxt : nxt + n]
        msg_u = w_u[nxt : nxt + n] * beta_u[nxt : nxt + n]
        beta_m[lo : lo + n] = params.p_forget * msg_u + (1.0 - params.p_forget) * msg_m
        beta_u[lo : lo + n] = (1.0 - params.p_learn) * msg_u + params.p_learn * msg_m
    return beta_m, beta_u


def _estep(params: BktParams, x: np.ndarray, sizes: np.ndarray):
    """Log-likelihood and expected counts of a packed block.

    The counts map each parameter to (numerator, denominator) of its
    M-step ratio.
    """
    alpha_m, alpha_u, realized = _forward(params, x, sizes)
    loglik = float(np.log(realized).sum())
    w_m, w_u = _emissions(params, x)
    w_m /= realized
    w_u /= realized
    del realized
    beta_m, beta_u = _backward(params, w_m, w_u, sizes)

    # Response k >= sizes[0] follows response prev[k - sizes[0]] of its
    # sequence; w * beta there is the message the transition carries.
    first = int(sizes[0])
    prev = np.arange(first, x.size) - np.repeat(sizes[:-1], sizes[1:])
    w_m *= beta_m
    w_u *= beta_u
    xi01 = params.p_learn * float(np.dot(alpha_u[prev], w_m[first:]))
    xi10 = params.p_forget * float(np.dot(alpha_m[prev], w_u[first:]))
    gamma_m = np.multiply(alpha_m, beta_m, out=beta_m)
    gamma_u = np.multiply(alpha_u, beta_u, out=beta_u)
    correct = x == 1
    return loglik, {
        "p_init": (float(gamma_m[:first].sum()), first),
        "p_learn": (xi01, float(gamma_u[prev].sum())),
        "p_forget": (xi10, float(gamma_m[prev].sum())),
        "p_slip": (float(gamma_m[~correct].sum()), float(gamma_m.sum())),
        "p_guess": (float(gamma_u[correct].sum()), float(gamma_u.sum())),
    }


@dataclass(frozen=True)
class FilterResult:
    """Per-attempt filter output.

    posterior[t] = P(mastered at t | responses up to t), predictive[t] =
    P(correct at t | responses before t), log_likelihood = sum of the log
    probabilities of the realized responses.
    """

    posterior: np.ndarray
    predictive: np.ndarray
    log_likelihood: float


def forward_filter(params: BktParams, responses) -> FilterResult:
    """Exact forward recursion over a single response sequence of 0/1.

    The mastered and unmastered probabilities are carried as two separate
    terms and the posterior is formed from both joint terms,
    mass_m / (mass_m + mass_u). Neither term is formed as 1 minus the other,
    so the posterior stays in [0, 1] when mastery is certain to rounding.
    """
    responses = list(responses)
    if not responses:
        raise OutOfRange("responses must be non-empty")
    for t, x in enumerate(responses):
        if x not in (0, 1):
            raise OutOfRange(f"response {x!r} at attempt {t + 1} is not 0 or 1")
    alpha_m, alpha_u, realized = _forward(params, *_pack([responses]))
    prior_m, prior_u = _predict(params, alpha_m[:-1], alpha_u[:-1])
    predictive = (
        np.concatenate(([params.p_init], prior_m)) * (1.0 - params.p_slip)
        + np.concatenate(([1.0 - params.p_init], prior_u)) * params.p_guess
    )
    return FilterResult(alpha_m, predictive, float(np.log(realized).sum()))


def _skill_block(panel: ResponsePanel, skill_id: int) -> tuple[np.ndarray, np.ndarray]:
    """One skill's sequences, packed."""
    _, responses, lengths = panel.skill_block(skill_id)
    if not lengths.size:
        raise UnknownSkill(f"panel holds no records for skill {skill_id}")
    return _pack_runs(responses, lengths)


def sequence_loglik(params: BktParams, panel: ResponsePanel, skill_id: int) -> float:
    """Log-likelihood of every person's sequence for a skill."""
    _, _, realized = _forward(params, *_skill_block(panel, skill_id))
    return float(np.log(realized).sum())


@dataclass(frozen=True)
class FitReport:
    """EM fit output; loglik_trace[i] is the log-likelihood after i M-steps.

    stop_reason is "tolerance" when the fit converged, "iteration_cap" when
    it ran out of iterations, and "degenerate" when the data put the
    maximum on the parameter boundary (then it never counts as converged).
    """

    params: BktParams
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool
    constraint_set: tuple[str, ...]
    degenerate_data: bool = False

    @property
    def stop_reason(self) -> str:
        if self.degenerate_data:
            return "degenerate"
        return "tolerance" if self.converged else "iteration_cap"

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "stop_reason": self.stop_reason})


def _nudged(values: dict[str, float], classic: bool) -> BktParams:
    """Parameters with every estimate nudged into [_BOUND, 1 - _BOUND].

    Under classic the forgetting transition is structurally zero: the
    E-step assigns it no expected count and it stays 0.
    """
    return BktParams(
        **{
            name: 0.0
            if classic and name == "p_forget"
            else min(max(value, _BOUND), 1.0 - _BOUND)
            for name, value in values.items()
        }
    )


def _mstep(counts: dict, current: BktParams, classic: bool, identified: bool) -> BktParams:
    estimates = {
        name: num / den if den > 0.0 else getattr(current, name)
        for name, (num, den) in counts.items()
    }
    if identified:
        for name in ("p_guess", "p_slip"):
            estimates[name] = min(estimates[name], _IDENTIFIED_CAP)
    return _nudged(estimates, classic)


def fit_baum_welch(
    panel: ResponsePanel,
    skill_id: int,
    init: BktParams,
    *,
    classic: bool = False,
    identified: bool = False,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> FitReport:
    """Constrained EM over all of one skill's sequences.

    Sequences are independent given the shared skill parameters. Convergence
    is declared when the relative improvement |delta ll| / (1 + |ll|) drops
    below tol. If every response in the panel is identical and no constraint
    is requested, the likelihood is maximized on the parameter boundary; the
    fit still runs but the report is flagged degenerate and not converged.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise OutOfRange(f"tol must be finite and > 0, got {tol}")
    if max_iters < 1:
        raise OutOfRange(f"max_iters must be >= 1, got {max_iters}")
    try:
        validate_bkt(init, classic=classic, identified=identified)
    except DomainError as exc:
        raise InvalidInit(f"init violates the requested constraints: {exc}") from exc
    x, sizes = _skill_block(panel, skill_id)
    degenerate = bool(x.min() == x.max()) and not classic and not identified

    constraint_set = tuple(
        name for name, flag in (("classic", classic), ("identified", identified)) if flag
    )
    # The nudged init is what the first E-step actually sees.
    current = _nudged(asdict(init), classic)
    loglik, counts = _estep(current, x, sizes)
    trace = [loglik]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        current = _mstep(counts, current, classic, identified)
        loglik, counts = _estep(current, x, sizes)
        trace.append(loglik)
        if abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-1])) < tol:
            converged = True
            break
    if degenerate:
        converged = False
    return FitReport(
        params=current,
        loglik_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
        constraint_set=constraint_set,
        degenerate_data=degenerate,
    )
