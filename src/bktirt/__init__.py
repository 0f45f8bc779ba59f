"""Mastery-chain and item-response toolkit.

Two-state hidden Markov machinery for knowledge tracing, the logistic
item-response family, the closed-form equilibrium bridge between them, a
population-scale convergence experiment, and an interacting-network
generalization with exact small-network oracles.
"""

from .bridge import (
    SkillEquilibrium,
    bkt_to_irt,
    classic_limit,
    equilibrium_gap,
    irt_to_bkt,
    learner_item_equilibrium,
)
from .chain import (
    StationaryDist,
    Trajectory,
    build_matrices,
    marginal_at,
    mastered_after,
    sample_trajectory,
    stationary_closed_form,
    stationary_power_iteration,
)
from .errors import DomainError
from .experiment import (
    BinnedCurve,
    Population,
    SimConfig,
    compare_to_irf,
    draw_population,
    expected_curves,
    run_equilibrium_experiment,
)
from .irt import (
    fit_irf_cd,
    irf_4pl,
    irf_mirt,
    irf_slope_max,
    logistic,
    simulate_dynamic_irt,
)
from .ising import (
    IsingNetwork,
    boltzmann_exact,
    conditional_prob,
    empirical_state_frequencies,
    energy,
    flip_energy_delta,
    glauber_step,
    metropolis_step,
    simulate_field,
)
from .params import (
    BktParams,
    DynamicIrtConfig,
    Irf4pl,
    MirtIrf,
    ResponsePanel,
    validate_bkt,
)
from .rng import DEFAULT_SEED, RngKey
from .tracing import (
    FilterResult,
    FitReport,
    fit_baum_welch,
    forward_filter,
    sequence_loglik,
)

__version__ = "0.1.0"

__all__ = [
    "BinnedCurve",
    "BktParams",
    "DEFAULT_SEED",
    "DomainError",
    "DynamicIrtConfig",
    "FilterResult",
    "FitReport",
    "Irf4pl",
    "IsingNetwork",
    "MirtIrf",
    "Population",
    "ResponsePanel",
    "RngKey",
    "SimConfig",
    "SkillEquilibrium",
    "StationaryDist",
    "Trajectory",
    "bkt_to_irt",
    "boltzmann_exact",
    "build_matrices",
    "classic_limit",
    "compare_to_irf",
    "conditional_prob",
    "draw_population",
    "empirical_state_frequencies",
    "energy",
    "flip_energy_delta",
    "equilibrium_gap",
    "expected_curves",
    "fit_baum_welch",
    "fit_irf_cd",
    "forward_filter",
    "glauber_step",
    "irf_4pl",
    "irf_mirt",
    "irf_slope_max",
    "irt_to_bkt",
    "learner_item_equilibrium",
    "logistic",
    "marginal_at",
    "mastered_after",
    "metropolis_step",
    "run_equilibrium_experiment",
    "sample_trajectory",
    "sequence_loglik",
    "simulate_dynamic_irt",
    "simulate_field",
    "stationary_closed_form",
    "stationary_power_iteration",
    "validate_bkt",
]
