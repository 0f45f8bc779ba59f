"""The public import surface."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import bktirt
import bktirt.cli
import bktirt.errors
from bktirt import (
    BktParams,
    DynamicIrtConfig,
    IsingNetwork,
    ResponsePanel,
    RngKey,
    SimConfig,
    Trajectory,
    classic_limit,
    empirical_state_frequencies,
    expected_curves,
    fit_baum_welch,
    fit_irf_cd,
    forward_filter,
    marginal_at,
    run_equilibrium_experiment,
    sample_trajectory,
    simulate_dynamic_irt,
    simulate_field,
)
from bktirt.errors import DimensionMismatch, ForgettingNonzero, OutOfRange, Reducible
from bktirt.experiment import summarize_curves


def test_every_exported_name_resolves_once():
    assert len(bktirt.__all__) == len(set(bktirt.__all__))
    for name in bktirt.__all__:
        assert hasattr(bktirt, name), name


def test_version_is_the_same_everywhere(capsys):
    # pyproject.toml is read as text: tomllib needs Python 3.11 and the
    # package supports 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert declared == [bktirt.__version__]
    assert bktirt.cli.dispatch(["--version"]) == 0
    assert capsys.readouterr().out == f"{bktirt.__version__}\n"


def test_names_the_tracer_wraps_on_the_cli_exist():
    # bench/tracer.py replaces these attributes of bktirt.cli by name, so a
    # name that moves or goes breaks traced benchmark runs. Its in_cli table
    # is read from the source; the tracer is not imported or run.
    source = (Path(__file__).parents[1] / "bench" / "tracer.py").read_text(encoding="utf-8")
    tables = [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["in_cli"]
    ]
    assert len(tables) == 1 and isinstance(tables[0], ast.Dict)
    names = [ast.literal_eval(key) for key in tables[0].keys]
    assert "write_curves_csv" in names
    for name in names:
        assert callable(getattr(bktirt.cli, name, None)), name


def _raised_name(node: ast.expr) -> str:
    """The dotted name a ``raise`` statement raises or calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return ast.unparse(node)


def test_every_library_raise_is_a_domain_error():
    # Callers catch DomainError for every rejected argument and the CLI
    # reports it by class name. Allowed besides: a re-raise (bare, or of a
    # name an ``except ... as`` bound) and ArgumentTypeError inside the
    # functions cli.py passes to argparse as ``type=``.
    offenders = []
    for path in sorted(Path(bktirt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        caught = {node.name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)}
        converters = {
            _raised_name(keyword.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for keyword in node.keywords
            if keyword.arg == "type"
        }
        in_converters = {
            id(raise_node)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in converters
            for raise_node in ast.walk(node)
            if isinstance(raise_node, ast.Raise)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node.exc)
            if name in caught:
                continue
            if id(node) in in_converters and name == "argparse.ArgumentTypeError":
                continue
            cls = getattr(bktirt.errors, name, None)
            if not (isinstance(cls, type) and issubclass(cls, bktirt.errors.DomainError)):
                offenders.append(f"{path.name}:{node.lineno}: raise {name}")
    assert offenders == []


def test_the_error_code_is_the_class_name():
    classes = [
        cls
        for cls in vars(bktirt.errors).values()
        if isinstance(cls, type) and issubclass(cls, bktirt.errors.DomainError)
    ]
    assert len(classes) == 15
    for cls in classes:
        assert "code" not in vars(cls), cls.__name__
        assert cls("bad value").render() == f"{cls.__name__}: bad value"


_PARAMS = BktParams(p_init=0.0, p_learn=0.2, p_forget=0.0, p_slip=0.1, p_guess=0.1)
_NET = IsingNetwork(
    couplings=np.zeros((2, 2)), fields=np.zeros(2), p_guess=np.zeros(2), p_slip=np.zeros(2)
)
_TRACE = Trajectory(np.zeros((3, 2), np.uint8), np.zeros((3, 2), np.uint8), RngKey(0))
_PANEL = ResponsePanel.from_records([(1, 1, 7, 1, 1), (1, 1, 7, 2, 0)])
_SMALL = SimConfig(n_people=2, n_items=2, replications=2, iteration_counts=(1,))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: classic_limit(BktParams(0.0, 0.2, 0.1, 0.1, 0.1)), ForgettingNonzero),
        (lambda: classic_limit(BktParams(0.0, 0.0, 0.0, 0.1, 0.1)), Reducible),
        (lambda: marginal_at(_PARAMS, -1), OutOfRange),
        (lambda: Trajectory(np.zeros(2), np.zeros(3), RngKey(0)), OutOfRange),
        (lambda: sample_trajectory(_PARAMS, 0, RngKey(0)), OutOfRange),
        (
            lambda: summarize_curves(
                run_equilibrium_experiment(_SMALL), _SMALL.irf(), 1,
                expected_curves(SimConfig(**{**vars(_SMALL), "bin_width": 0.5})),
            ),
            DimensionMismatch,
        ),
        (
            lambda: simulate_dynamic_irt(
                DynamicIrtConfig(theta0=0.0, noise_sd=0.0, difficulties=(0.0,)), 0, RngKey(0)
            ),
            OutOfRange,
        ),
        (lambda: fit_irf_cd([(0.0, 0.5, 1.0), (1.0, 0.6, 1.0)], a_fixed=0.0), OutOfRange),
        (lambda: simulate_field(_NET, 0, RngKey(0)), OutOfRange),
        (lambda: simulate_field(_NET, 5, RngKey(0), dynamics="gibbs"), OutOfRange),
        (lambda: simulate_field(_NET, 5, RngKey(0), scan="shuffled"), OutOfRange),
        (lambda: empirical_state_frequencies(_TRACE, burn_in=-1), OutOfRange),
        (lambda: empirical_state_frequencies(_TRACE, thin=0), OutOfRange),
        (lambda: forward_filter(_PARAMS, []), OutOfRange),
        (lambda: fit_baum_welch(_PANEL, 7, _PARAMS, tol=0.0), OutOfRange),
        (lambda: fit_baum_welch(_PANEL, 7, _PARAMS, max_iters=0), OutOfRange),
    ],
)
def test_rejected_arguments_raise_the_class_that_names_them(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
