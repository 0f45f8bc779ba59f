"""Closed-form maps between mastery-chain parameters and their equilibrium
item-response representation.

At stationarity the probability of a correct response under the two-state
chain equals a discrimination-1 4PL curve evaluated at
log(p_learn) - log(p_forget), with asymptotes p_guess and 1 - p_slip. The
maps here are exact reparameterizations, not estimators: for a single skill
the ability log(p_learn) and difficulty log(p_forget) enter only through
their difference and are not separately identifiable from that skill's
equilibrium data.
"""

from __future__ import annotations

import math

from ._value import Value
from .chain import stationary_closed_form
from .errors import ForgettingNonzero, NonErgodic, OutOfDomain, Reducible
from .params import BktParams


class SkillEquilibrium(Value):
    """Skill-level equilibrium curve parameters.

    theta = log p_learn, b = log p_forget (both <= 0), c = p_guess,
    d = 1 - p_slip; p_correct is the stationary correct-response probability.
    """

    theta: float
    b: float
    c: float
    d: float
    p_correct: float


def bkt_to_irt(params: BktParams) -> SkillEquilibrium:
    """Equilibrium response law of a skill's mastery chain.

    p_correct mixes the stationary mastery mass through the emissions:
    p_guess + ((1 - p_slip) - p_guess) * lambda1. The chain must be ergodic:
    NonErgodic when a rate is 0, or for the period-2 chain p_learn =
    p_forget = 1, whose marginals never settle. Any emissions are mapped:
    when p_guess > 1 - p_slip the curve decreases (c > d), as criterion 1
    draws it, and when they are equal it is flat.
    """
    if params.p_learn <= 0.0 or params.p_forget <= 0.0:
        raise NonErgodic(
            "equilibrium map needs p_learn > 0 and p_forget > 0 "
            f"(got p_learn={params.p_learn}, p_forget={params.p_forget}); "
            "with p_forget = 0 use classic_limit instead"
        )
    stationary = stationary_closed_form(params)
    if stationary.periodic:
        raise NonErgodic(
            "p_learn = p_forget = 1 is a period-2 chain; marginals never converge"
        )
    lam1 = stationary.lambda1
    d = 1.0 - params.p_slip
    p_correct = params.p_guess + (d - params.p_guess) * lam1
    return SkillEquilibrium(
        theta=math.log(params.p_learn),
        b=math.log(params.p_forget),
        c=params.p_guess,
        d=d,
        p_correct=p_correct,
    )


def irt_to_bkt(theta: float, b: float, c: float, d: float) -> BktParams:
    """Invert the equilibrium map: p_learn = e^theta, p_forget = e^b,
    p_guess = c, p_slip = 1 - d. p_init carries no information at
    equilibrium and comes back as the 0.5 placeholder.

    theta and b must be <= 0 (logs of probabilities); positive values would
    imply transition probabilities above 1.
    """
    if theta > 0.0 or b > 0.0:
        raise OutOfDomain(
            f"theta and b must be <= 0 (logs of probabilities), got "
            f"theta={theta}, b={b}"
        )
    if not 0.0 <= c < d <= 1.0:
        raise OutOfDomain(f"asymptotes must satisfy 0 <= c < d <= 1, got c={c}, d={d}")
    return BktParams(
        p_init=0.5,
        p_learn=math.exp(theta),
        p_forget=math.exp(b),
        p_slip=1.0 - d,
        p_guess=c,
    )


def classic_limit(params: BktParams) -> float:
    """Long-run correct probability when mastery is absorbing (p_forget = 0).

    The chain converges to the mastered state, so responses converge to
    Bernoulli(1 - p_slip).
    """
    if params.p_forget != 0.0:
        raise ForgettingNonzero(
            f"classic_limit requires p_forget == 0, got {params.p_forget}"
        )
    if params.p_learn <= 0.0:
        raise Reducible("classic_limit requires p_learn > 0")
    return 1.0 - params.p_slip
