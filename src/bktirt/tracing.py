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
over that active prefix, with no padding and no mask. A block whose longest
sequence is long is cut into segments of about sqrt(T) attempts whose 2x2
transfer matrices run through the same loops and are then stitched (see
_Block), so it takes about 2 sqrt(T) steps instead of T.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._value import Value
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


def _layout(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed layout of sequences stored end to end: (rank, dest, sizes).

    Sequences are ranked by length, longest first (ties keep their order).
    sizes[t] is the number of sequences with an attempt t, and step t holds
    those attempts of the first sizes[t] ranks, step after step; the i-th
    response end to end goes to packed position dest[i].
    """
    rank = np.empty(lengths.size, dtype=np.intp)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    step = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    sizes = np.bincount(step)
    return rank, (np.cumsum(sizes) - sizes)[step] + np.repeat(rank, lengths), sizes


def _pack_runs(flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed responses x and step sizes of 0/1 sequences stored end to end."""
    _, dest, sizes = _layout(lengths)
    x = np.empty(flat.size, dtype=np.intp)
    x[dest] = flat
    return x, sizes


def _segment_length(sizes: np.ndarray) -> int:
    """Segment length for a block of these step sizes: about sqrt(T) for
    T steps, or T (no cut) when cutting would not pay.

    A cut block runs 2B + ceil(T / B) loop steps (first segments, later
    segments, stitch) and about 5 steps' worth of set-up, against T. Each
    response after its sequence's first segment also costs about 1/128 of
    a step more (its transfer matrix, gathers and expansion; measured on
    blocks of 1 to 4,096 sequences of 8 to 4,096 attempts). Cut only when
    that sum is below T.
    """
    steps = int(sizes.size)
    length = math.isqrt(steps - 1) + 1
    cost = 2 * length + -(-steps // length) + 5 + int(sizes[length:].sum()) / 128
    return length if cost < steps else steps


def _prev(sizes: np.ndarray) -> np.ndarray:
    """Position of the previous attempt of each response after step 0."""
    first = int(sizes[:1].sum())
    return np.arange(first, int(sizes.sum())) - np.repeat(sizes[:-1], sizes[1:])


class _Block(Value):
    """Packed 0/1 responses x with step sizes `sizes`, cut into segments of
    at most `length` attempts, and what every pass reuses.

    Each sequence's first segment is its first `length` attempts: the
    block's first `head` responses, in place. The later segments form a
    packed block of their own, longest first, with step sizes
    `later_sizes`; its k-th response is block position `later[k]` and
    belongs to later segment `row[k]`. `rows[j - 1][r]` is the later segment
    that is segment j of the sequence ranked r. Nothing is cut when `length`
    is the block's step count: then `later` is empty and `segments` is 0.

    prev and later_prev are _prev of the block and of its later segments;
    ends[j] holds the later-block positions where the segments that go on
    from stitch step j end (full, at its last step); correct and wrong are
    the positions of the 1s and the 0s.
    """

    x: np.ndarray
    sizes: np.ndarray
    length: int
    head: int
    later: np.ndarray
    later_sizes: np.ndarray
    row: np.ndarray
    rows: list[np.ndarray]
    segments: int
    prev: np.ndarray
    later_prev: np.ndarray
    ends: list[np.ndarray]
    correct: np.ndarray
    wrong: np.ndarray


def _block(x: np.ndarray, sizes: np.ndarray, length: int | None = None) -> _Block:
    """The block of packed responses x with these step sizes, cut into
    segments of `length` attempts (chosen from the sizes unless given)."""
    steps = int(sizes.size)
    length = min(_segment_length(sizes) if length is None else length, steps)
    starts = np.cumsum(sizes) - sizes
    n_cut = int(sizes[length]) if length < steps else 0
    # Per sequence cut (by rank): attempts and segments after its first.
    rest = np.searchsorted(-sizes, -np.arange(n_cut)) - length
    count = -(-rest // length)
    first = np.cumsum(count) - count
    within = np.arange(count.sum()) - np.repeat(first, count)
    rank, dest, later_sizes = _layout(np.minimum(np.repeat(rest, count) - within * length, length))
    step = length + np.arange(rest.sum()) - np.repeat(np.cumsum(rest) - rest, rest)
    later = np.empty(step.size, dtype=np.intp)
    later[dest] = starts[step] + np.repeat(np.arange(n_cut), rest)
    most = int(count.max(initial=0))
    rows = [rank[first[: sizes[j * length]] + j - 1] for j in range(1, most + 1)]
    head = int(starts[length - 1] + sizes[length - 1])
    row = np.arange(step.size) - np.repeat(np.cumsum(later_sizes) - later_sizes, later_sizes)
    tail = later.size - int(later_sizes[-1:].sum())
    going_on = [r.size for r in rows[1:]] + [0]
    ends = [tail + r[:n] for r, n in zip(rows, going_on)]
    correct = x == 1
    return _Block(x, sizes, length, head, later, later_sizes, row, rows, int(count.sum()),
                  _prev(sizes), _prev(later_sizes), ends,
                  np.flatnonzero(correct), np.flatnonzero(~correct))


# Start-state rows of a transfer matrix before its first attempt: the identity.
_EYE_M = np.array([[1.0], [0.0]])
_EYE_U = np.array([[0.0], [1.0]])


def _emissions(params: BktParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(x | mastered) and P(x | unmastered) per packed response."""
    return (
        np.array([params.p_slip, 1.0 - params.p_slip]).take(x),
        np.array([1.0 - params.p_guess, params.p_guess]).take(x),
    )


def _predict(params: BktParams, m, u):
    """One transition of the (mastered, unmastered) probabilities."""
    return (
        m * (1.0 - params.p_forget) + u * params.p_learn,
        m * params.p_forget + u * (1.0 - params.p_learn),
    )


def _retreat(params: BktParams, m, u):
    """One transition back: the transposed transition applied to (m, u)."""
    return (
        params.p_forget * u + (1.0 - params.p_forget) * m,
        (1.0 - params.p_learn) * u + params.p_learn * m,
    )


def _mix(w_m, w_u, t_m, t_u):
    """w_m times row 0 plus w_u times row 1 of the 2x2 matrices whose row i
    is (t_m[i], t_u[i]): a prior through forward transfer matrices, or
    backward transfer matrices applied to end values."""
    return w_m * t_m[0] + w_u * t_m[1], w_m * t_u[0] + w_u * t_u[1]


def _scan(params, emit_m, emit_u, sizes, prior_m, prior_u, out_m, out_u, scale):
    """Forward loop over a packed block, for a vector or a matrix of terms.

    prior_m, prior_u are the mastered and unmastered terms before each
    sequence's first attempt: shape (1 or sizes[0],) for a vector, (2, 1)
    for the rows of a transfer matrix. Each step multiplies the emissions
    in, stores the terms over their sum (over both rows of a matrix) in
    out_m, out_u (shape (N,) or (2, N)) and that sum in scale, and predicts
    the next step. Returns the prediction after the last step.
    """
    lo = 0
    for n in sizes.tolist():
        hi = lo + n
        mass_m = prior_m[..., :n] * emit_m[lo:hi]
        mass_u = prior_u[..., :n] * emit_u[lo:hi]
        if mass_m.ndim == 1:
            total = np.add(mass_m, mass_u, out=scale[lo:hi])
        else:
            total = np.add.reduce(mass_m + mass_u, axis=0, out=scale[lo:hi])
        m = np.divide(mass_m, total, out=out_m[..., lo:hi])
        u = np.divide(mass_u, total, out=out_u[..., lo:hi])
        prior_m, prior_u = _predict(params, m, u)
        lo = hi
    return prior_m, prior_u


def _scan_back(params, w_m, w_u, sizes, beta_m, beta_u) -> None:
    """Backward loop over a packed block, in place; beta_m, beta_u (shape
    (N,), or (2, N) for the columns of transfer matrices) hold each
    sequence's end values on entry."""
    starts = (np.cumsum(sizes) - sizes).tolist()
    for t in range(len(starts) - 2, -1, -1):
        n, lo, nxt = int(sizes[t + 1]), starts[t], starts[t + 1]
        beta_m[..., lo : lo + n], beta_u[..., lo : lo + n] = _retreat(
            params,
            w_m[nxt : nxt + n] * beta_m[..., nxt : nxt + n],
            w_u[nxt : nxt + n] * beta_u[..., nxt : nxt + n],
        )


def _forward(params: BktParams, block: _Block):
    """Scaled forward pass over a packed block.

    Returns a list of, per response, the filtered mastered and unmastered
    probabilities, each its joint term over their sum; the realized
    probability of the response given the attempts before it; and its
    emissions P(x | mastered), P(x | unmastered).

    The first segments run from the prior. Each later segment runs from
    both start states at once, which carries its transfer matrix normalized
    per step, and the per-step scale. The segment priors are then stitched
    across sequences, one step per segment index, and each later response's
    terms are its segment prior times its matrix.
    """
    x, head, later = block.x, block.head, block.later
    emit_m, emit_u = _emissions(params, x)
    alpha_m, alpha_u, realized = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    mat_m, mat_u = np.empty((2, 2, later.size))
    scale = np.empty(later.size)
    pi_m, pi_u = np.empty((2, block.segments))
    # A zero realized probability poisons only its own sequence; it is
    # reported after the pass, at the earliest attempt it occurs.
    with np.errstate(divide="ignore", invalid="ignore"):
        p_m, p_u = _scan(
            params, emit_m[:head], emit_u[:head], block.sizes[: block.length],
            np.array([params.p_init]), np.array([1.0 - params.p_init]),
            alpha_m[:head], alpha_u[:head], realized[:head],
        )
        _scan(params, emit_m[later], emit_u[later], block.later_sizes, _EYE_M, _EYE_U,
              mat_m, mat_u, scale)
        for rows, end in zip(block.rows, block.ends):
            pi_m[rows], pi_u[rows] = p_m[: rows.size], p_u[: rows.size]
            m, u = _mix(p_m[: end.size], p_u[: end.size], mat_m[:, end], mat_u[:, end])
            total = m + u
            p_m, p_u = _predict(params, m / total, u / total)
        m, u = _mix(pi_m[block.row], pi_u[block.row], mat_m, mat_u)
        total = m + u
        alpha_m[later], alpha_u[later] = m / total, u / total
        realized[later] = scale * total / np.concatenate((pi_m + pi_u, total[block.later_prev]))
    # A matrix row can fall below the float range against the other row
    # while the prior rests on it alone; the total then loses its digits.
    # Such a block, or one with a response of probability 0 after its
    # first segments, runs whole.
    if not (total >= 1e-200).all():
        return _forward(params, _block(x, block.sizes, block.sizes.size))
    impossible = ~(realized > 0.0)
    if impossible.any():
        k = int(np.argmax(impossible))
        attempt = int(np.searchsorted(np.cumsum(block.sizes), k, side="right")) + 1
        raise ZeroLikelihood(
            f"response {int(x[k])} at attempt {attempt} has probability 0 under "
            "the given parameters"
        )
    return [alpha_m, alpha_u, realized, emit_m, emit_u]


def _backward(params: BktParams, w_m: np.ndarray, w_u: np.ndarray, block: _Block):
    """Scaled backward pass over a packed block; w is emission / realized.

    beta is 1 at each sequence's last attempt. Each later segment runs from
    both end states at once, which carries its transfer matrix; w already
    holds the forward scale, so it needs no rescaling. The segment end
    values are stitched from each sequence's last segment back, and the
    first segments then run from theirs.
    """
    sizes, head, later, n = block.sizes, block.head, block.later, block.segments
    w_lm, w_lu = w_m[later], w_u[later]
    mat_m, mat_u = np.empty((2, 2, later.size))
    mat_m[:], mat_u[:] = _EYE_M, _EYE_U
    _scan_back(params, w_lm, w_lu, block.later_sizes, mat_m, mat_u)
    # Each segment's matrix carried back across its first attempt.
    k_m, k_u = _retreat(params, w_lm[:n] * mat_m[:, :n], w_lu[:n] * mat_u[:, :n])
    b_m, b_u = np.ones((2, block.rows[0].size if block.rows else 0))
    end_m, end_u = np.empty((2, n))
    for rows in reversed(block.rows):
        k = rows.size
        end_m[rows], end_u[rows] = b_m[:k], b_u[:k]
        b_m[:k], b_u[:k] = _mix(b_m[:k], b_u[:k], k_m[:, rows], k_u[:, rows])
    beta_m, beta_u = np.ones(w_m.size), np.ones(w_m.size)
    beta_m[later], beta_u[later] = _mix(end_m[block.row], end_u[block.row], mat_m, mat_u)
    lo = head - int(sizes[block.length - 1])
    beta_m[lo : lo + b_m.size], beta_u[lo : lo + b_u.size] = b_m, b_u
    _scan_back(params, w_m[:head], w_u[:head], sizes[: block.length], beta_m[:head], beta_u[:head])
    return beta_m, beta_u


def _loglik(forward) -> float:
    """Log-likelihood of a block from its forward pass."""
    return float(np.log(forward[2]).sum())


def _counts(params: BktParams, block: _Block, forward: list) -> dict:
    """Expected counts of a packed block from its forward pass: each
    parameter maps to (numerator, denominator) of its M-step ratio. The
    arrays are taken out of ``forward``, which is left empty, so each is
    freed as soon as it is used."""
    alpha_m, alpha_u, realized, w_m, w_u = forward
    forward.clear()
    w_m /= realized
    w_u /= realized
    del realized
    # Where the filter puts probability 0 on a state that the later data
    # favour, the backward messages of that state can overflow; the counts
    # are then not finite, and fit_baum_welch stops on them.
    with np.errstate(over="ignore", invalid="ignore"):
        beta_m, beta_u = _backward(params, w_m, w_u, block)

        # Response k >= sizes[0] follows response prev[k - sizes[0]] of its
        # sequence; w * beta there is the message the transition carries.
        first, prev = int(block.sizes[0]), block.prev
        w_m *= beta_m
        w_u *= beta_u
        # numpy's pairwise sum, not np.dot: BLAS splits a long dot product
        # by its thread count, which would make the counts depend on it.
        xi01 = params.p_learn * float((alpha_u[prev] * w_m[first:]).sum())
        # Only a classic fit has p_forget 0.0, which its M-step keeps, so it
        # skips the forgetting count. Every gamma is >= 0 and a non-finite
        # beta makes its gamma non-finite, so either skipped sum is not
        # finite only where gamma_u.sum() or gamma_m.sum() is not either.
        classic = params.p_forget == 0.0
        xi10 = 0.0 if classic else params.p_forget * float((alpha_m[prev] * w_u[first:]).sum())
        gamma_m = np.multiply(alpha_m, beta_m, out=beta_m)
        gamma_u = np.multiply(alpha_u, beta_u, out=beta_u)
    return {
        "p_init": (float(gamma_m[:first].sum()), first),
        "p_learn": (xi01, float(gamma_u[prev].sum())),
        "p_forget": (xi10, 0.0 if classic else float(gamma_m[prev].sum())),
        "p_slip": (float(gamma_m[block.wrong].sum()), float(gamma_m.sum())),
        "p_guess": (float(gamma_u[block.correct].sum()), float(gamma_u.sum())),
    }


class FilterResult(Value):
    """Per-attempt filter output.

    posterior[t] = P(mastered at t | responses up to t), predictive[t] =
    P(correct at t | responses before t), log_likelihood = sum of the log
    probabilities of the realized responses.
    """

    posterior: np.ndarray
    predictive: np.ndarray
    log_likelihood: float


def _binary(responses: list) -> np.ndarray:
    """The responses as one boolean array (True for 1), checked in one
    comparison to accept exactly what ``x in (0, 1)`` accepts: a flat list
    of numbers compares as numbers, anything else item by item as Python
    objects. No complex or object value reaches the integer packing. Raises
    OutOfRange naming the first other response and its attempt."""
    try:
        values = np.asarray(responses)
    except ValueError:  # ragged nested lists
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "biufc":
        values = np.fromiter(responses, dtype=object, count=len(responses))
    ones = values == 1
    bad = np.flatnonzero(~(ones | (values == 0)))
    if bad.size:
        t = int(bad[0])
        raise OutOfRange(f"response {responses[t]!r} at attempt {t + 1} is not 0 or 1")
    return ones


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
    x, sizes = _pack_runs(_binary(responses), np.array([len(responses)]))
    alpha_m, alpha_u, realized, _, _ = _forward(params, _block(x, sizes))
    prior_m, prior_u = _predict(params, alpha_m[:-1], alpha_u[:-1])
    predictive = (
        np.concatenate(([params.p_init], prior_m)) * (1.0 - params.p_slip)
        + np.concatenate(([1.0 - params.p_init], prior_u)) * params.p_guess
    )
    return FilterResult(alpha_m, predictive, float(np.log(realized).sum()))


def _skill_block(panel: ResponsePanel, skill_id: int) -> _Block:
    """One skill's sequences, as a block."""
    _, responses, lengths = panel.skill_block(skill_id)
    if not lengths.size:
        raise UnknownSkill(f"panel holds no records for skill {skill_id}")
    return _block(*_pack_runs(responses, lengths))


class FitReport(Value):
    """EM fit output; loglik_trace[i] is the log-likelihood after i M-steps.

    stop_reason is "tolerance" when the fit converged, "iteration_cap" when
    it ran out of iterations, and "degenerate" when the data put the
    maximum on the parameter boundary or left the E-step without finite
    counts (then it never counts as converged). degenerate_cause says
    which; the JSON form carries it only on a degenerate fit.

    work holds the fit's counters from the block it ran on: sequences,
    responses and cut_segments (segments beyond each sequence's first that
    the passes cut sequences into; 0 when every sequence ran whole). It
    takes no part in equality, hashing or the JSON form.
    """

    params: BktParams
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool
    constraint_set: tuple[str, ...]
    degenerate_data: bool = False
    degenerate_cause: str = ""
    work: dict[str, int]  # a fresh dict unless given (see _value)

    @property
    def stop_reason(self) -> str:
        if self.degenerate_data:
            return "degenerate"
        return "tolerance" if self.converged else "iteration_cap"

    def to_json(self) -> str:
        raw = {
            "params": {name: getattr(self.params, name) for name in BktParams.__slots__},
            "loglik_trace": self.loglik_trace,
            "iterations": self.iterations,
            "converged": self.converged,
            "constraint_set": self.constraint_set,
            "degenerate_data": self.degenerate_data,
        }
        if self.degenerate_data:
            raw["degenerate_cause"] = self.degenerate_cause
        return json.dumps({**raw, "stop_reason": self.stop_reason})


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
    An E-step whose expected counts are not finite stops the fit before its
    M-step, with the report flagged degenerate the same way.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise OutOfRange(f"tol must be finite and > 0, got {tol}")
    if max_iters < 1:
        raise OutOfRange(f"max_iters must be >= 1, got {max_iters}")
    try:
        validate_bkt(init, classic=classic, identified=identified)
    except DomainError as exc:
        raise InvalidInit(f"init violates the requested constraints: {exc}") from exc
    block = _skill_block(panel, skill_id)
    cause = ""
    if not (block.correct.size and block.wrong.size) and not classic and not identified:
        cause = "every response is identical, so the likelihood peaks on the parameter boundary"

    constraint_set = tuple(
        name for name, flag in (("classic", classic), ("identified", identified)) if flag
    )
    # The nudged init is what the first E-step actually sees. Each E-step
    # runs its forward pass first, and its backward pass and counts only
    # when an M-step follows: not after the fit converges or hits the cap.
    current = _nudged({name: getattr(init, name) for name in BktParams.__slots__}, classic)
    forward = _forward(current, block)
    trace = [_loglik(forward)]
    converged = False
    iterations = 0
    while iterations < max_iters:
        counts = _counts(current, block, forward)
        if not all(math.isfinite(v) for pair in counts.values() for v in pair):
            cause = (
                f"the E-step after {iterations} M-steps has counts that are not "
                "finite: the backward pass overflows on a state the filter gives "
                "probability 0"
            )
            break
        iterations += 1
        current = _mstep(counts, current, classic, identified)
        forward = _forward(current, block)
        trace.append(_loglik(forward))
        if abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-1])) < tol:
            converged = True
            break
    return FitReport(
        params=current,
        loglik_trace=tuple(trace),
        iterations=iterations,
        converged=converged and not cause,
        constraint_set=constraint_set,
        degenerate_data=bool(cause),
        degenerate_cause=cause,
        work={
            "sequences": int(block.sizes[0]),
            "responses": int(block.x.size),
            "cut_segments": block.segments,
        },
    )
