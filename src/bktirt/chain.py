"""Two-state Markov chain machinery for the latent mastery process.

State convention, fixed everywhere in this package: index 0 = unmastered,
index 1 = mastered. Transition rows give the law of the next latent state;
emission rows give the law of the response (column 0 = incorrect, 1 =
correct). All operations are pure functions of their inputs. The closed
forms (``stationary_closed_form``, ``marginal_at``) take and return floats;
the functions that make arrays import numpy themselves, so the closed forms
load without it. ``StationaryDist`` and ``Trajectory`` are immutable value
types on the package's slotted base (``_value.Value``), which needs no
``dataclasses`` either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._value import Value
from .errors import InsufficientData, OutOfRange, Reducible
from .params import BktParams
from .rng import RngKey

if TYPE_CHECKING:
    import numpy as np

# Rows of latent that Trajectory.flip_rate compares at a time.
_FLIP_BLOCK = 1 << 14
# stationary_power_iteration's settling tolerance and step cap.
_POWER_TOL = 1e-12
_POWER_MAX_STEPS = 10**6


def build_matrices(params: BktParams) -> tuple[np.ndarray, np.ndarray]:
    """Transition and emission matrices of the mastery chain.

    Under the unmastered=0 convention the transition matrix is
    ``[[1-p_learn, p_learn], [p_forget, 1-p_forget]]`` and the emission
    matrix is ``[[1-p_guess, p_guess], [p_slip, 1-p_slip]]``. (Sources that
    list the mastered row first are the same matrices with both rows and
    columns permuted.)
    """
    import numpy as np

    transition = np.array(
        [
            [1.0 - params.p_learn, params.p_learn],
            [params.p_forget, 1.0 - params.p_forget],
        ]
    )
    emission = np.array(
        [
            [1.0 - params.p_guess, params.p_guess],
            [params.p_slip, 1.0 - params.p_slip],
        ]
    )
    return transition, emission


class StationaryDist(Value):
    """Long-run latent mastery law (lambda0, lambda1) with lambda = A^T lambda.

    ``periodic`` marks the period-2 chain (p_learn = p_forget = 1): the
    stationary distribution exists but finite-time marginals never converge
    to it.
    """

    lambda0: float
    lambda1: float
    periodic: bool = False


def stationary_closed_form(params: BktParams) -> StationaryDist:
    """Stationary distribution (p_forget, p_learn) / (p_learn + p_forget).

    Requires p_learn + p_forget > 0; the identity transition (both zero) has
    no unique stationary distribution and raises Reducible.
    """
    total = params.p_learn + params.p_forget
    if total == 0.0:
        raise Reducible(
            "p_learn = p_forget = 0: the latent chain is the identity and "
            "every distribution is stationary"
        )
    lam1 = params.p_learn / total
    return StationaryDist(1.0 - lam1, lam1, periodic=(total == 2.0))


def stationary_power_iteration(transition: np.ndarray) -> StationaryDist:
    """Stationary distribution by iterating v <- A^T v from (1, 0).

    Advances two steps at a time so the iteration also settles for chains
    with a negative subdominant eigenvalue; periodicity is then judged by
    comparing the settled iterate against one further step. A period-2
    chain leaves that one-step gap large, in which case the two-cycle
    average is returned with the periodic flag set.
    """
    import numpy as np

    t = np.asarray(transition, dtype=float)
    a00, a01, a10, a11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    v0, v1 = 1.0, 0.0
    steps = 0
    while steps < _POWER_MAX_STEPS:
        w0 = a00 * v0 + a10 * v1
        w1 = a01 * v0 + a11 * v1
        u0 = a00 * w0 + a10 * w1
        u1 = a01 * w0 + a11 * w1
        steps += 2
        settled = abs(u0 - v0) < _POWER_TOL and abs(u1 - v1) < _POWER_TOL
        v0, v1 = u0, u1
        if settled:
            break
    w0 = a00 * v0 + a10 * v1
    w1 = a01 * v0 + a11 * v1
    if max(abs(w0 - v0), abs(w1 - v1)) < max(math.sqrt(_POWER_TOL), 16.0 * _POWER_TOL):
        return StationaryDist(w0, w1)
    return StationaryDist(0.5 * (v0 + w0), 0.5 * (v1 + w1), periodic=True)


def marginal_at(params: BktParams, t: int) -> float:
    """Exact P(latent state = mastered at attempt t), with t = 0 -> p_init.

    Computed by iterating m <- p_learn + m * (1 - p_learn - p_forget), the
    mastered-mass component of applying A^T t times to (1-p_init, p_init).
    """
    if t < 0:
        raise OutOfRange(f"t must be >= 0, got {t}")
    m = params.p_init
    keep = 1.0 - params.p_learn - params.p_forget
    for _ in range(t):
        m = params.p_learn + m * keep
    return m


def mastered_after(p_learn, p_forget, z, steps: int):
    """P(mastered after ``steps`` transitions | current state z), elementwise.

    The closed form lambda1 + (z - lambda1) * r^steps, with lambda1 =
    p_learn / (p_learn + p_forget) and r = 1 - p_learn - p_forget, is the
    mastered column of row z of the steps-th power of the transition matrix.
    Requires p_learn + p_forget > 0; arguments broadcast as numpy arrays.
    """
    import numpy as np

    p_learn = np.asarray(p_learn, dtype=float)
    p_forget = np.asarray(p_forget, dtype=float)
    lam1 = p_learn / (p_learn + p_forget)
    return lam1 + (z - lam1) * (1.0 - p_learn - p_forget) ** steps


class Trajectory(Value):
    """Sampled latent/emitted paths plus the stream key that produced them:
    one row per step of a mastery chain, or per sweep of a network (then
    one column per node).

    ``states`` is optional: a network sampler keeps each sweep's latent
    state packed into one integer (node j = bit j), in the narrowest
    unsigned type that holds its 2^n states (int64 past 32 nodes). It is
    what counting states counts, so a trajectory without it (a mastery
    chain leaves it None) has no state frequencies.

    ``work`` holds the counters of the run that made it, by name; a network
    sampler sets ``uniforms_drawn``, ``rerun_sweeps`` (the sweeps its
    repair rounds ran again) and ``serial_sweeps`` (the sweeps its per-site
    loop ran after the round cap). A mastery chain leaves it empty. It takes
    no part in equality."""

    latent: np.ndarray
    emitted: np.ndarray
    key: RngKey
    states: np.ndarray | None = None
    work: dict[str, int]  # a fresh dict unless given (see _value)

    def __post_init__(self) -> None:
        if len(self.latent) != len(self.emitted) or len(self.latent) < 1:
            raise OutOfRange("latent and emitted must have equal length >= 1")
        if self.states is not None and (
            self.latent.ndim != 2 or len(self.states) != len(self.latent)
        ):
            raise OutOfRange("states must hold one entry per row of a (sweeps, nodes) latent")

    def __len__(self) -> int:
        return self.latent.shape[0]

    def flip_rate(self) -> float:
        """Share of site updates that changed their site. A network sweep
        updates each site once from an all-zero start, so a site differs from
        the previous sweep exactly when its update flipped it; under
        Metropolis this is the acceptance rate. Rows are compared a block at
        a time, so no mask the size of ``latent`` is made."""
        import numpy as np

        flips = np.count_nonzero(self.latent[0])
        for lo in range(1, len(self), _FLIP_BLOCK):
            hi = min(lo + _FLIP_BLOCK, len(self))
            flips += np.count_nonzero(self.latent[lo:hi] != self.latent[lo - 1 : hi - 1])
        return flips / self.latent.size


def require_sweeps_after_burn_in(burn_in: int, sweeps: int) -> None:
    """Raise InsufficientData when a burn-in leaves no sweep to count."""
    if burn_in >= sweeps:
        raise InsufficientData(f"burn-in of {burn_in} sweeps leaves none of {sweeps} to count")


def sample_trajectory(params: BktParams, steps: int, key: RngKey) -> Trajectory:
    """Sample a latent mastery path and its noisy responses.

    Uniform draw layout: row 0 of a (2, steps) block drives the latent chain
    (first entry the initial state, then one per transition), row 1 drives
    the emissions. Identical keys therefore give identical trajectories.
    """
    import numpy as np

    if steps < 1:
        raise OutOfRange(f"steps must be >= 1, got {steps}")
    draws = key.generator().random((2, steps))
    u_state, u_emit = draws[0].tolist(), draws[1]

    # next state is mastered iff u < P(mastered | current state)
    up = (params.p_learn, 1.0 - params.p_forget)
    z = 1 if u_state[0] < params.p_init else 0
    states = [z] * steps
    for t in range(1, steps):
        z = 1 if u_state[t] < up[z] else 0
        states[t] = z
    latent = np.array(states, dtype=np.uint8)

    p_correct = np.where(latent == 1, 1.0 - params.p_slip, params.p_guess)
    emitted = (u_emit < p_correct).astype(np.uint8)
    return Trajectory(latent, emitted, key)
