"""Mastery-chain and item-response toolkit.

Two-state hidden Markov machinery for knowledge tracing, the logistic
item-response family, the closed-form equilibrium bridge between them, a
population-scale convergence experiment, and an interacting-network
generalization with exact small-network oracles.
"""

__version__ = "0.1.0"

# Every public name and the submodule that defines it. A name is imported on
# first use (PEP 562) and then kept here, so `import bktirt` loads no
# submodule and no numpy.
_EXPORTS = {
    "BinnedCurve": "experiment",
    "BktParams": "params",
    "DEFAULT_SEED": "rng",
    "DomainError": "errors",
    "FilterResult": "tracing",
    "FitReport": "tracing",
    "Irf4pl": "params",
    "IsingNetwork": "ising",
    "Population": "experiment",
    "ResponsePanel": "params",
    "RngKey": "rng",
    "SimConfig": "experiment",
    "SkillEquilibrium": "bridge",
    "StationaryDist": "chain",
    "Trajectory": "chain",
    "bkt_to_irt": "bridge",
    "boltzmann_exact": "ising",
    "build_matrices": "chain",
    "classic_limit": "bridge",
    "compare_to_irf": "experiment",
    "draw_population": "experiment",
    "empirical_state_frequencies": "ising",
    "fit_baum_welch": "tracing",
    "fit_irf_cd": "irt",
    "forward_filter": "tracing",
    "irf_4pl": "irt",
    "irf_slope_max": "irt",
    "irt_to_bkt": "bridge",
    "logistic": "irt",
    "marginal_at": "chain",
    "mastered_after": "chain",
    "run_equilibrium_experiment": "experiment",
    "sample_trajectory": "chain",
    "simulate_field": "ising",
    "stationary_closed_form": "chain",
    "stationary_power_iteration": "chain",
    "summarize_curves": "experiment",
    "validate_bkt": "params",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # What ``from .module import name`` runs; unlike importlib.import_module,
    # it shows in ``python -X importtime``.
    value = getattr(__import__(module, globals(), fromlist=[name], level=1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
