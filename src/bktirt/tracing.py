"""Mastery inference and estimation: forward filtering and constrained EM.

The forward filter tracks the per-attempt posterior of the latent mastered
state; the EM fitter (expected-count Baum-Welch) estimates the five chain
probabilities from a response panel, optionally under the classic
(p_forget = 0) and identified (guess, slip < 0.5) constraints. Because the
complete-data likelihood separates per parameter, clamping each M-step
estimate to its constraint interval is the exact constrained M-step, so the
log-likelihood trace stays non-decreasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
        raise ValueError("responses must be non-empty")
    for t, x in enumerate(responses):
        if x not in (0, 1):
            raise OutOfRange(f"response {x!r} at attempt {t + 1} is not 0 or 1")
    p_correct_m, p_correct_u = 1.0 - params.p_slip, params.p_guess
    posterior = np.empty(len(responses))
    predictive = np.empty(len(responses))
    log_likelihood = 0.0
    m, u = params.p_init, 1.0 - params.p_init
    for t, x in enumerate(responses):
        predictive[t] = m * p_correct_m + u * p_correct_u
        if x == 1:
            mass_m, mass_u = m * p_correct_m, u * p_correct_u
        else:
            mass_m, mass_u = m * params.p_slip, u * (1.0 - params.p_guess)
        realized = mass_m + mass_u
        if realized <= 0.0:
            raise ZeroLikelihood(
                f"response {x} at attempt {t + 1} has probability 0 under "
                "the given parameters"
            )
        m_post, u_post = mass_m / realized, mass_u / realized
        posterior[t] = m_post
        log_likelihood += float(np.log(realized))
        m = m_post * (1.0 - params.p_forget) + u_post * params.p_learn
        u = m_post * params.p_forget + u_post * (1.0 - params.p_learn)
    return FilterResult(posterior, predictive, log_likelihood)


def sequence_loglik(params: BktParams, panel: ResponsePanel, skill_id: int) -> float:
    """Sum of filter log-likelihoods over every person's sequence for a skill."""
    sequences = panel.sequences(skill_id)
    if not sequences:
        raise UnknownSkill(f"panel holds no records for skill {skill_id}")
    return sum(
        forward_filter(params, seq).log_likelihood for seq in sequences.values()
    )


@dataclass(frozen=True)
class FitReport:
    """EM fit output; loglik_trace[i] is the log-likelihood after i M-steps."""

    params: BktParams
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool
    constraint_set: tuple[str, ...]
    degenerate_data: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": {
                    name: getattr(self.params, name) for name in BktParams._FIELDS
                },
                "loglik_trace": list(self.loglik_trace),
                "iterations": self.iterations,
                "converged": self.converged,
                "constraint_set": list(self.constraint_set),
                "degenerate_data": self.degenerate_data,
            }
        )


class _Stats:
    """Accumulated expected counts from one E-step pass."""

    __slots__ = (
        "n_seq",
        "init1",
        "from0",
        "xi01",
        "from1",
        "xi10",
        "occ0",
        "correct0",
        "occ1",
        "wrong1",
        "loglik",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0.0)


def _bucket_estep(params: BktParams, x: np.ndarray, stats: _Stats) -> None:
    """Scaled forward-backward over one (n_sequences, length) response block."""
    n, t_len = x.shape
    is_correct = x == 1
    b0 = np.where(is_correct, params.p_guess, 1.0 - params.p_guess).T
    b1 = np.where(is_correct, 1.0 - params.p_slip, params.p_slip).T
    a00, a01 = 1.0 - params.p_learn, params.p_learn
    a10, a11 = params.p_forget, 1.0 - params.p_forget

    alpha = np.empty((t_len, n, 2))
    cnorm = np.empty((t_len, n))
    prior0 = np.full(n, 1.0 - params.p_init)
    prior1 = np.full(n, params.p_init)
    for t in range(t_len):
        un0 = prior0 * b0[t]
        un1 = prior1 * b1[t]
        c = un0 + un1
        if not np.all(c > 0.0):
            raise ZeroLikelihood(
                "a realized response has probability 0 under the current "
                "parameters"
            )
        alpha[t, :, 0] = un0 / c
        alpha[t, :, 1] = un1 / c
        cnorm[t] = c
        prior0 = alpha[t, :, 0] * a00 + alpha[t, :, 1] * a10
        prior1 = alpha[t, :, 0] * a01 + alpha[t, :, 1] * a11
    stats.loglik += float(np.log(cnorm).sum())

    beta = np.empty((t_len, n, 2))
    beta[t_len - 1] = 1.0
    for t in range(t_len - 2, -1, -1):
        m0 = b0[t + 1] * beta[t + 1, :, 0]
        m1 = b1[t + 1] * beta[t + 1, :, 1]
        beta[t, :, 0] = (a00 * m0 + a01 * m1) / cnorm[t + 1]
        beta[t, :, 1] = (a10 * m0 + a11 * m1) / cnorm[t + 1]

    gamma = alpha * beta
    stats.n_seq += n
    stats.init1 += float(gamma[0, :, 1].sum())
    stats.occ0 += float(gamma[:, :, 0].sum())
    stats.occ1 += float(gamma[:, :, 1].sum())
    stats.correct0 += float((gamma[:, :, 0] * is_correct.T).sum())
    stats.wrong1 += float((gamma[:, :, 1] * (~is_correct).T).sum())
    if t_len > 1:
        stats.from0 += float(gamma[:-1, :, 0].sum())
        stats.from1 += float(gamma[:-1, :, 1].sum())
        stats.xi01 += float(
            (alpha[:-1, :, 0] * a01 * b1[1:] * beta[1:, :, 1] / cnorm[1:]).sum()
        )
        stats.xi10 += float(
            (alpha[:-1, :, 1] * a10 * b0[1:] * beta[1:, :, 0] / cnorm[1:]).sum()
        )


def _estep(params: BktParams, buckets: dict[int, np.ndarray]) -> _Stats:
    stats = _Stats()
    for t_len in sorted(buckets):
        _bucket_estep(params, buckets[t_len], stats)
    return stats


def _ratio(num: float, den: float, fallback: float) -> float:
    return num / den if den > 0.0 else fallback


def _nudge(value: float) -> float:
    return min(max(value, _BOUND), 1.0 - _BOUND)


def _mstep(stats: _Stats, current: BktParams, classic: bool, identified: bool) -> BktParams:
    p_init = _ratio(stats.init1, stats.n_seq, current.p_init)
    p_learn = _ratio(stats.xi01, stats.from0, current.p_learn)
    # Under classic the forgetting transition is structurally zero: the
    # E-step already assigns it no expected count and it is not re-estimated.
    p_forget = 0.0 if classic else _ratio(stats.xi10, stats.from1, current.p_forget)
    p_guess = _ratio(stats.correct0, stats.occ0, current.p_guess)
    p_slip = _ratio(stats.wrong1, stats.occ1, current.p_slip)
    if identified:
        p_guess = min(p_guess, _IDENTIFIED_CAP)
        p_slip = min(p_slip, _IDENTIFIED_CAP)
    return BktParams(
        p_init=_nudge(p_init),
        p_learn=_nudge(p_learn),
        p_forget=p_forget if classic else _nudge(p_forget),
        p_slip=_nudge(p_slip),
        p_guess=_nudge(p_guess),
    )


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
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    try:
        validate_bkt(init, classic=classic, identified=identified)
    except DomainError as exc:
        raise InvalidInit(f"init violates the requested constraints: {exc}") from exc
    sequences = panel.sequences(skill_id)
    if not sequences:
        raise UnknownSkill(f"panel holds no records for skill {skill_id}")

    by_len: dict[int, list[list[int]]] = {}
    for seq in sequences.values():
        by_len.setdefault(len(seq), []).append(seq)
    buckets = {
        t_len: np.array(rows, dtype=np.int8) for t_len, rows in by_len.items()
    }

    flat = [x for seq in sequences.values() for x in seq]
    degenerate = len(set(flat)) == 1 and not classic and not identified

    constraint_set = tuple(
        name for name, flag in (("classic", classic), ("identified", identified)) if flag
    )
    # The nudged init is what the first E-step actually sees.
    current = _mstep_nudge_init(init, classic)
    stats = _estep(current, buckets)
    trace = [stats.loglik]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        current = _mstep(stats, current, classic, identified)
        stats = _estep(current, buckets)
        trace.append(stats.loglik)
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


def _mstep_nudge_init(init: BktParams, classic: bool) -> BktParams:
    return BktParams(
        p_init=_nudge(init.p_init),
        p_learn=_nudge(init.p_learn),
        p_forget=init.p_forget if classic else _nudge(init.p_forget),
        p_slip=_nudge(init.p_slip),
        p_guess=_nudge(init.p_guess),
    )
