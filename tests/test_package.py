"""The public import surface."""

from __future__ import annotations

import ast
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bktirt
import bktirt.cli
import bktirt.errors
from bktirt import (
    BinnedCurve,
    BktParams,
    FilterResult,
    FitReport,
    Irf4pl,
    IsingNetwork,
    Population,
    ResponsePanel,
    RngKey,
    SimConfig,
    SkillEquilibrium,
    StationaryDist,
    Trajectory,
    bkt_to_irt,
    classic_limit,
    empirical_state_frequencies,
    fit_baum_welch,
    fit_irf_cd,
    forward_filter,
    irt_to_bkt,
    marginal_at,
    sample_trajectory,
    simulate_field,
    validate_bkt,
)
from bktirt._value import Value
from bktirt.errors import (
    ForgettingNonzero,
    InvalidPanel,
    NonErgodic,
    OutOfDomain,
    OutOfRange,
    Reducible,
    Unidentified,
)


def test_every_exported_name_resolves_once():
    assert len(bktirt.__all__) == len(set(bktirt.__all__))
    for name in bktirt.__all__:
        assert hasattr(bktirt, name), name


def test_readme_lists_every_public_name_under_its_module():
    # README's "Public API" section says what uses each name, so a name
    # added to __all__ without a line there (and a user) fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed, module = {}, None
    for line in section.splitlines():
        if header := re.fullmatch(r"\*\*`bktirt\.(\w+)`\*\*", line):
            module = header[1]
        elif line.startswith("- "):
            for name in re.findall(r"`(\w+)`", line.split(":", 1)[0]):
                assert name not in listed, name
                listed[name] = module
    assert listed == bktirt._EXPORTS
    assert f"holds the {len(listed)} names" in section


def test_version_is_the_same_everywhere(capsys):
    # pyproject.toml is read as text: tomllib needs Python 3.11 and the
    # package supports 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert declared == [bktirt.__version__]
    assert bktirt.cli.dispatch(["--version"]) == 0
    assert capsys.readouterr().out == f"{bktirt.__version__}\n"


def _smallest_commands(tmp_path: Path) -> dict[str, list[str]]:
    """For each library call the CLI makes, the smallest command that makes
    it, with its input files written under ``tmp_path``."""
    params = tmp_path / "params.json"
    params.write_text(BktParams(0.2, 0.3, 0.1, 0.1, 0.2).to_json())
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "person_id,item_id,skill_id,attempt,correct\n"
        + "".join(f"{p},0,7,{t},{(p + t) % 3 > 0:d}\n" for p in range(4) for t in range(1, 6))
    )
    net = tmp_path / "net.json"
    net.write_text('{"n": 2, "couplings": [[0, 1, 0.5]]}')
    experiment = ["experiment", "--people", "3", "--items", "2", "--reps", "2",
                  "--min-count", "1", "--out", str(tmp_path / "curve.csv")]
    ising = ["ising", "--net", str(net), "--sweeps", "10", "--exact",
             "--out", str(tmp_path / "freq.csv")]
    return {
        "run_equilibrium_experiment": experiment,
        "summarize_curves": experiment,
        "write_curves_csv": experiment,
        "write_summary_json": experiment,
        "fit_baum_welch": ["fit-bkt", "--panel", str(panel), "--skill", "7",
                           "--max-iters", "3"],
        "simulate_field": ising,
        "empirical_state_frequencies": ising,
        "boltzmann_exact": ising,
        "bkt_to_irt": ["bridge", "--params", str(params)],
        "sample_trajectory": ["simulate", "--p-learn", "0.3", "--steps", "5"],
        "stationary_closed_form": ["stationary", "--p-learn", "0.3"],
        "irf_4pl": ["irf", "--points", "3"],
    }


def test_names_the_tracer_wraps_on_the_cli_exist(tmp_path, monkeypatch, capsys):
    # bench/tracer.py replaces these attributes of bktirt.cli by name, so a
    # name that moves or goes breaks traced benchmark runs, and a command
    # that stops calling through the attribute loses its span. Its in_cli
    # table is read from the source; the tracer is not imported or run.
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
    commands = _smallest_commands(tmp_path)
    assert sorted(names) == sorted(commands)
    for name in names:
        original = getattr(bktirt.cli, name, None)
        assert callable(original), name
        calls = []

        def recording(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(bktirt.cli, name, recording)
            assert bktirt.cli.dispatch(commands[name]) == 0, (name, capsys.readouterr().err)
        assert calls, name
        assert getattr(bktirt.cli, name) is original


def test_the_cli_resolves_library_names_through_the_package():
    # The package's lazy table is the only name -> module table: every
    # public name is the same object on bktirt.cli, and nothing else is
    # delegated (a module with __path__ would pass for a package).
    for name in bktirt.__all__:
        assert getattr(bktirt.cli, name) is getattr(bktirt, name), name
    for name in ("__path__", "__all__", "_EXPORTS", "experiment", "no_such_name"):
        assert not hasattr(bktirt.cli, name), name


_SRC = str(Path(bktirt.__file__).parents[1])


def _fresh_modules(
    tmp_path: Path, statement: str, *argv: str, env: dict[str, str] | None = None
) -> set[str]:
    """sys.modules of a fresh interpreter, started in ``tmp_path`` with
    ``argv`` as sys.argv[1:] and ``env`` (default: this one's) as its
    environment, after it runs ``statement``."""
    script = f"import sys\n{statement}\nprint(*sys.modules, file=sys.stderr)\n"
    env = os.environ if env is None else env
    path = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path, env={**env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_bktirt_loads_no_submodule_and_no_numpy(tmp_path):
    loaded = _fresh_modules(tmp_path, "import bktirt")
    assert "bktirt" in loaded
    assert sorted(m for m in loaded if m.startswith("bktirt.") or m == "numpy") == []


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_the_cli_runs_one_blas_thread_unless_told_otherwise(tmp_path):
    # This process imported bktirt.cli, so its environment carries the
    # settings; each child starts without them. The CLI module does not
    # load numpy itself, so numpy is imported after it, as a command that
    # builds arrays would: BLAS starts its threads when numpy loads.
    unset = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    _fresh_modules(
        tmp_path,
        "import os, bktirt.cli, numpy\n"
        "tasks = os.listdir('/proc/self/task')\n"
        "assert len(tasks) == 1, tasks\n"
        f"assert [os.environ[v] for v in {_BLAS_THREADS}] == ['1'] * 3",
        env=unset,
    )
    _fresh_modules(
        tmp_path,
        "import os, bktirt.cli\nassert os.environ['OPENBLAS_NUM_THREADS'] == '2'",
        env={**unset, "OPENBLAS_NUM_THREADS": "2"},
    )
    _fresh_modules(
        tmp_path,
        "import os, bktirt, bktirt.chain, bktirt.params, bktirt.experiment\n"
        "import bktirt.ising, bktirt.tracing, bktirt.bridge, bktirt.irt\n"
        f"assert [v for v in {_BLAS_THREADS} if v in os.environ] == []",
        env=unset,
    )


def test_star_import_and_dir_list_every_exported_name(tmp_path):
    # In a fresh interpreter, before any name has been used.
    _fresh_modules(
        tmp_path,
        "import bktirt\n"
        "listed = set(dir(bktirt))\n"
        "from bktirt import *\n"
        "missing = [n for n in bktirt.__all__ if n not in globals() or n not in listed]\n"
        "assert missing == [], missing",
    )


_MODELS = ["bktirt.experiment", "bktirt.ising", "bktirt.tracing", "bktirt.irt"]
_ANY = ["numpy", "bktirt.chain", "bktirt.params", "bktirt.bridge", *_MODELS]
# What a dataclass would load: the value types are built without it.
_DATACLASSES = ["dataclasses", "inspect"]


@pytest.mark.parametrize(
    "command, code, loads, skips",
    [
        (["--version"], 0, [], [*_ANY, *_DATACLASSES]),
        (["--help"], 0, [], [*_ANY, *_DATACLASSES]),
        (["--no-such-flag"], 2, [], [*_ANY, *_DATACLASSES]),
        ("stationary_closed_form", 0, ["bktirt.chain"],
         ["numpy", "bktirt.bridge", *_MODELS, *_DATACLASSES]),
        ("bkt_to_irt", 0, ["bktirt.bridge"], ["numpy", *_MODELS, *_DATACLASSES]),
        ("run_equilibrium_experiment", 0, ["numpy", "bktirt.experiment"],
         ["bktirt.ising", "bktirt.tracing"]),
        ("fit_baum_welch", 0, ["numpy", "bktirt.tracing"], ["bktirt.ising", "bktirt.experiment"]),
        ("simulate_field", 0, ["numpy", "bktirt.ising"], ["bktirt.experiment", "bktirt.tracing"]),
    ],
    ids=["version", "help", "usage-error", "stationary", "bridge", "experiment", "fit-bkt",
         "ising"],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command, code, loads, skips):
    # Only the commands that build arrays load numpy.
    argv = command if isinstance(command, list) else _smallest_commands(tmp_path)[command]
    loaded = _fresh_modules(
        tmp_path,
        "from bktirt.cli import dispatch\n"
        f"assert dispatch(sys.argv[1:]) == {code}",
        *argv,
    )
    assert [m for m in loads if m not in loaded] == []
    assert [m for m in skips if m in loaded] == []


@pytest.mark.parametrize(
    "argv, error",
    [
        (["experiment", "--desk", "--people", "3", "--out", "x.csv"],
         "bktirt experiment: error: argument --desk: not allowed with --people"),
        (["--nope"], "bktirt: error: unrecognized arguments: --nope"),
        (["irf", "--points", "0"],
         "bktirt irf: error: argument --points: expected an integer from 1 to 2000000, got '0'"),
        (["simulate", "--p-learn", "0.3", "--steps", "1000001"],
         "bktirt simulate: error: argument --steps: expected an integer from 1 to 1000000, "
         "got '1000001'"),
    ],
    ids=["desk-with-size", "unknown-flag", "irf-points", "simulate-steps"],
)
def test_a_usage_error_logs_no_numpy_import(tmp_path, argv, error):
    # A usage error exits 2 with one stderr line before any command module
    # or numpy loads: the --desk check against the sizes runs before
    # dispatch loads the experiment's modules. The import log names every
    # module the process loaded.
    code, errors, log = _cli_import_log(tmp_path, argv)
    assert code == 2
    assert errors == [error]
    assert any(re.search(r"\| *bktirt\.rng$", line) for line in log)
    assert [line for line in log if re.search(r"\| *numpy(\.|$)", line)] == []
    assert list(tmp_path.iterdir()) == []


def _cli_import_log(tmp_path: Path, argv: list[str]) -> tuple[int, list[str], list[str]]:
    """Exit code, other stderr lines and import log of ``python -X
    importtime -m bktirt.cli`` run in ``tmp_path`` with ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bktirt.cli", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stderr.splitlines()
    log = [line for line in lines if line.startswith("import time:")]
    return proc.returncode, [line for line in lines if line not in log], log


@pytest.mark.parametrize(
    "argv, error",
    [
        (["irf", "--points", "3", "--theta-min", "-1e308", "--theta-max", "1e308"],
         "OutOfRange: --theta-max 1e+308 minus --theta-min -1e+308 overflows a float"),
        (["ising", "--net", "net.json", "--burn-in", "5", "--sweeps", "5", "--out", "i.csv"],
         "InsufficientData: burn-in of 5 sweeps leaves none of 5 to count"),
    ],
    ids=["irf-span", "ising-burn-in"],
)
def test_a_refusal_decided_by_the_flags_logs_no_numpy_import(tmp_path, argv, error):
    # Each is its row's check in the CLI's command table, which dispatch
    # runs before it loads the command's modules: one stderr line, exit 1,
    # no numpy and no output file.
    (tmp_path / "net.json").write_text('{"n": 2, "couplings": [[0, 1, 0.5]]}')
    code, errors, log = _cli_import_log(tmp_path, argv)
    assert code == 1
    assert errors == [error]
    assert any(re.search(r"\| *bktirt\.rng$", line) for line in log)
    assert [line for line in log if re.search(r"\| *numpy(\.|$)", line)] == []
    assert [path.name for path in tmp_path.iterdir()] == ["net.json"]


@pytest.mark.parametrize("command", ["simulate", "filter", "fit-bkt", "experiment", "irf", "ising"])
def test_numpy_loads_before_a_run_starts_its_clock(tmp_path, command):
    # A run's clock starts when its _Run is made: numpy's import must fall
    # in no phase of the manifest and not in its duration_s. So must that of
    # numpy.random for a command that draws; one that does not never loads it.
    argvs = {argv[0]: argv for argv in _smallest_commands(tmp_path).values()}
    argvs["filter"] = ["filter", "--params", str(tmp_path / "params.json"), "--responses", "1,0"]
    draws = command in ("simulate", "experiment", "ising")
    loaded = _fresh_modules(
        tmp_path,
        "import bktirt.cli as cli\n"
        "def started(run, *args, _init=cli._Run.__init__):\n"
        "    assert 'numpy' in sys.modules\n"
        f"    assert ('numpy.random' in sys.modules) is {draws}\n"
        "    _init(run, *args)\n"
        "    started.runs += 1\n"
        "started.runs = 0\n"
        "cli._Run.__init__ = started\n"
        "assert cli.dispatch(sys.argv[1:]) == 0 and started.runs == 1",
        *argvs[command],
    )
    assert ("numpy.random" in loaded) is draws


# The module whose calls each command's run times: the package module its
# row in the CLI's command table loads.
_RUNS = {
    name: next(module for module in loads if module.startswith("bktirt."))
    for name, (_, _, loads, _) in bktirt.cli._COMMANDS.items()
}


@pytest.mark.parametrize("command", list(_RUNS))
def test_no_phase_of_a_run_imports_a_module(tmp_path, command):
    # A phase times the command's own work: its modules, and what they load
    # on first use, are loaded before the run's clock starts (and before
    # main() freezes what is loaded), so every phase begins with them.
    argvs = {argv[0]: argv for argv in _smallest_commands(tmp_path).values()}
    argvs["filter"] = ["filter", "--params", str(tmp_path / "params.json"), "--responses", "1,0"]
    _fresh_modules(
        tmp_path,
        "import contextlib\n"
        "import bktirt.cli as cli\n"
        "@contextlib.contextmanager\n"
        "def phase(run, name, _phase=cli._Run.phase):\n"
        f"    assert {_RUNS[command]!r} in sys.modules, name\n"
        "    before = set(sys.modules)\n"
        "    with _phase(run, name):\n"
        "        yield\n"
        "    phase.seen.append((name, sorted(set(sys.modules) - before)))\n"
        "phase.seen = []\n"
        "cli._Run.phase = phase\n"
        "assert cli.dispatch(sys.argv[1:]) == 0\n"
        "assert phase.seen and all(new == [] for _, new in phase.seen), phase.seen",
        *argvs[command],
    )


def test_no_module_imports_dataclasses():
    # The value types stand on _value.Value; a dataclass would bring back
    # the dataclasses and inspect imports on every cold start.
    offenders = []
    for path in sorted(Path(bktirt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _raised_name(node: ast.expr) -> str:
    """The dotted name a ``raise`` statement raises or calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return ast.unparse(node)


def test_every_library_raise_is_a_domain_error():
    # Callers catch DomainError for every rejected argument and the CLI
    # reports it by class name. Allowed besides: a re-raise (bare, or of a
    # name an ``except ... as`` bound), ArgumentTypeError inside the
    # functions cli.py passes to argparse as ``type=``, AttributeError
    # inside a module-level ``__getattr__`` (PEP 562), which ``hasattr``
    # and ``getattr`` with a default rely on, and the value base's
    # TypeError (a wrong constructor call) and AttributeError (assignment),
    # which any Python object raises for these.
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
        in_converters, in_getattr = (
            {
                id(raise_node)
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name in names
                for raise_node in ast.walk(node)
                if isinstance(raise_node, ast.Raise)
            }
            for names in (converters, {"__getattr__"})
        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node.exc)
            if name in caught:
                continue
            if id(node) in in_converters and name == "argparse.ArgumentTypeError":
                continue
            if id(node) in in_getattr and name == "AttributeError":
                continue
            if path.name == "_value.py" and name in ("TypeError", "AttributeError"):
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
    assert len(classes) == 14
    for cls in classes:
        assert "code" not in vars(cls), cls.__name__
        assert cls("bad value").render() == f"{cls.__name__}: bad value"


_PARAMS = BktParams(p_init=0.0, p_learn=0.2, p_forget=0.0, p_slip=0.1, p_guess=0.1)
_NET = IsingNetwork(
    couplings=np.zeros((2, 2)), fields=np.zeros(2), p_guess=np.zeros(2), p_slip=np.zeros(2)
)
_TRACE = Trajectory(np.zeros((3, 2), np.uint8), np.zeros((3, 2), np.uint8), RngKey(0))
_PANEL = ResponsePanel([(1, 1, 7, 1, 1), (1, 1, 7, 2, 0)])


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: classic_limit(BktParams(0.0, 0.2, 0.1, 0.1, 0.1)), ForgettingNonzero,
                     id="classic_limit-forgetting"),
        pytest.param(lambda: classic_limit(BktParams(0.0, 0.0, 0.0, 0.1, 0.1)), Reducible,
                     id="classic_limit-no-learning"),
        pytest.param(lambda: BktParams(1.5, 0.2, 0.1, 0.1, 0.1), OutOfRange,
                     id="BktParams-p_init-above-one"),
        pytest.param(lambda: BktParams.from_json("[]"), OutOfRange, id="BktParams-json-list"),
        pytest.param(lambda: validate_bkt(BktParams(0.0, 0.2, 0.1, 0.1, 0.1), classic=True),
                     ForgettingNonzero, id="validate_bkt-classic"),
        pytest.param(lambda: validate_bkt(BktParams(0.0, 0.2, 0.1, 0.1, 0.6), identified=True),
                     Unidentified, id="validate_bkt-identified"),
        pytest.param(lambda: bkt_to_irt(_PARAMS), NonErgodic, id="bkt_to_irt-absorbing"),
        pytest.param(lambda: irt_to_bkt(0.5, -1.0, 0.1, 0.9), OutOfDomain,
                     id="irt_to_bkt-positive-theta"),
        pytest.param(lambda: irt_to_bkt(-1.0, -1.0, 0.9, 0.4), OutOfDomain,
                     id="irt_to_bkt-c-above-d"),
        pytest.param(lambda: Irf4pl(a=0.0, b=0.0), OutOfRange, id="Irf4pl-zero-a"),
        pytest.param(lambda: Irf4pl(a=math.inf, b=0.0), OutOfRange, id="Irf4pl-infinite-a"),
        pytest.param(lambda: Irf4pl(1.0, math.nan), OutOfRange, id="Irf4pl-nan-b"),
        # Integers beyond float range, which math.isfinite cannot convert.
        pytest.param(lambda: BktParams(10**400, 0, 0, 0, 0), OutOfRange,
                     id="BktParams-huge-int"),
        pytest.param(lambda: Irf4pl(1, 0, c=10**400), OutOfRange, id="Irf4pl-huge-int-c"),
        pytest.param(lambda: Irf4pl(1, 10**400), OutOfRange, id="Irf4pl-huge-int-b"),
        pytest.param(lambda: Irf4pl(10**400, 0), OutOfRange, id="Irf4pl-huge-int-a"),
        pytest.param(lambda: SimConfig.desk(iteration_counts=(2.5,)), OutOfRange,
                     id="SimConfig-float-iteration"),
        pytest.param(lambda: SimConfig.desk(iteration_counts=(True,)), OutOfRange,
                     id="SimConfig-bool-iteration"),
        pytest.param(lambda: SimConfig.desk(n_people=True), OutOfRange,
                     id="SimConfig-bool-people"),
        pytest.param(lambda: SimConfig.desk(replications=2.0), OutOfRange,
                     id="SimConfig-float-replications"),
        pytest.param(lambda: marginal_at(_PARAMS, -1), OutOfRange, id="marginal_at-negative-steps"),
        pytest.param(lambda: Trajectory(np.zeros(2), np.zeros(3), RngKey(0)), OutOfRange,
                     id="Trajectory-unequal-lengths"),
        pytest.param(lambda: sample_trajectory(_PARAMS, 0, RngKey(0)), OutOfRange,
                     id="sample_trajectory-zero-steps"),
        pytest.param(lambda: fit_irf_cd([(0.0, 0.5, 1.0), (1.0, 0.6, 1.0)], a_fixed=0.0),
                     OutOfRange, id="fit_irf_cd-zero-a"),
        pytest.param(lambda: simulate_field(_NET, 0, RngKey(0)), OutOfRange,
                     id="simulate_field-zero-sweeps"),
        pytest.param(lambda: simulate_field(_NET, 5, RngKey(0), dynamics="gibbs"), OutOfRange,
                     id="simulate_field-dynamics"),
        pytest.param(lambda: simulate_field(_NET, 5, RngKey(0), scan="shuffled"), OutOfRange,
                     id="simulate_field-scan"),
        pytest.param(lambda: empirical_state_frequencies(_TRACE, burn_in=-1), OutOfRange,
                     id="frequencies-negative-burn-in"),
        pytest.param(lambda: empirical_state_frequencies(_TRACE, thin=0), OutOfRange,
                     id="frequencies-zero-thin"),
        # Only a trajectory's states are counted: a mastery chain's has none,
        # and neither has a network trajectory built by hand without them.
        pytest.param(lambda: empirical_state_frequencies(sample_trajectory(_PARAMS, 5, RngKey(0))),
                     OutOfRange, id="frequencies-mastery-chain"),
        pytest.param(lambda: empirical_state_frequencies(_TRACE), OutOfRange,
                     id="frequencies-hand-built"),
        pytest.param(lambda: forward_filter(_PARAMS, []), OutOfRange, id="forward_filter-empty"),
        pytest.param(lambda: fit_baum_welch(_PANEL, 7, _PARAMS, tol=0.0), OutOfRange,
                     id="fit_baum_welch-zero-tol"),
        pytest.param(lambda: fit_baum_welch(_PANEL, 7, _PARAMS, max_iters=0), OutOfRange,
                     id="fit_baum_welch-zero-iters"),
        # Records that int64 would cut (1.5 to 1), that are not N x 5, or
        # that int64 cannot hold.
        pytest.param(lambda: ResponsePanel([[1, 1, 1, 1, 1.5]]), InvalidPanel,
                     id="ResponsePanel-float"),
        pytest.param(lambda: ResponsePanel([[1, 2, 3]]), InvalidPanel, id="ResponsePanel-width"),
        pytest.param(lambda: ResponsePanel([[1, 1, 1, 1, 2**63]]), InvalidPanel,
                     id="ResponsePanel-huge-int"),
        # Four fields as a 2 x 2 array, which n_nodes would count as 4 nodes.
        pytest.param(lambda: IsingNetwork(np.zeros((4, 4)), [[0.1, 0.2], [0.3, 0.4]],
                                          np.zeros(4), np.zeros(4)),
                     OutOfRange, id="IsingNetwork-2d-fields"),
    ],
)
def test_rejected_arguments_raise_the_class_that_names_them(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


_ARRAY = np.array([0.5, 0.25])
_P = dict(p_init=0.3, p_learn=0.2, p_forget=0.1, p_slip=0.15, p_guess=0.25)
# Each value type, fields for one instance, and for a type that holds no
# array, its repr as the dataclass it replaced printed it.
_VALUE_TYPES = [
    (RngKey, dict(seed=7, path=(1, 2)), "RngKey(seed=7, path=(1, 2))"),
    (BktParams, _P,
     "BktParams(p_init=0.3, p_learn=0.2, p_forget=0.1, p_slip=0.15, p_guess=0.25)"),
    (Irf4pl, dict(a=1.5, b=-0.5, c=0.1, d=0.9), "Irf4pl(a=1.5, b=-0.5, c=0.1, d=0.9)"),
    (StationaryDist, dict(lambda0=0.25, lambda1=0.75, periodic=False),
     "StationaryDist(lambda0=0.25, lambda1=0.75, periodic=False)"),
    (Trajectory, dict(latent=_ARRAY, emitted=_ARRAY, key=RngKey(1), states=None), None),
    (SkillEquilibrium, dict(theta=-1.0, b=-2.0, c=0.1, d=0.9, p_correct=0.5),
     "SkillEquilibrium(theta=-1.0, b=-2.0, c=0.1, d=0.9, p_correct=0.5)"),
    (SimConfig, dict(n_people=200, n_items=50, replications=200, iteration_counts=(2, 5, 50),
                     p_slip=0.1, p_guess=0.1, seed=20240901, bin_width=0.25),
     "SimConfig(n_people=200, n_items=50, replications=200, iteration_counts=(2, 5, 50), "
     "p_slip=0.1, p_guess=0.1, seed=20240901, bin_width=0.25)"),
    (Population, dict(p_learn=_ARRAY, p_forget=_ARRAY, theta=_ARRAY, b=_ARRAY), None),
    (BinnedCurve, dict(iterations=2, bin_centers=_ARRAY, prop_correct=_ARRAY,
                       expected=_ARRAY, n_obs=_ARRAY), None),
    (IsingNetwork, dict(couplings=np.zeros((2, 2)), fields=_ARRAY, p_guess=_ARRAY,
                        p_slip=_ARRAY), None),
    (FilterResult, dict(posterior=_ARRAY, predictive=_ARRAY, log_likelihood=-1.5), None),
    (FitReport, dict(params=BktParams(**_P), loglik_trace=(-3.5, -2.25), iterations=1,
                     converged=True, constraint_set=("classic",), degenerate_data=False,
                     degenerate_cause=""),
     "FitReport(params=BktParams(p_init=0.3, p_learn=0.2, p_forget=0.1, p_slip=0.15, "
     "p_guess=0.25), loglik_trace=(-3.5, -2.25), iterations=1, converged=True, "
     "constraint_set=('classic',), degenerate_data=False, degenerate_cause='', work={})"),
]


@pytest.mark.parametrize("cls, fields, text", _VALUE_TYPES,
                         ids=[cls.__name__ for cls, _, _ in _VALUE_TYPES])
def test_value_type_contract(cls, fields, text):
    value, again = cls(**fields), cls(*fields.values())
    names = [name for name in cls.__slots__ if name != "work"]
    assert names == list(fields)
    # Immutable: no field can be set or deleted, and no attribute added.
    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == [getattr(again, name) for name in names]
    # Equal by value, and only to the same type: not to a tuple of the same
    # fields, nor to another value type that holds them.
    twin = type(cls.__name__, (Value,), {"__annotations__": dict.fromkeys(names, "object")})
    assert value == again and not value != again
    assert value != tuple(fields.values()) and value != twin(**fields)
    # An array field equals an equal array that is another object, and not
    # one that differs in one element.
    arrays = [name for name in names if isinstance(fields[name], np.ndarray)]
    copies = {name: fields[name].copy() for name in arrays}
    assert cls(**{**fields, **copies}) == value
    for name in arrays:
        changed = fields[name].copy()
        changed.flat[1] = np.nextafter(changed.flat[1], np.inf)
        assert cls(**{**fields, name: changed}) != value
    if text is not None:
        assert repr(value) == text
        assert hash(value) == hash(again)
        assert pickle.loads(pickle.dumps(value)) == value
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    # A run's counters: a fresh dict each, outside equality and hashing.
    if "work" in cls.__slots__:
        counted = cls(**fields, work={"sequences": 3})
        assert counted.work == {"sequences": 3} and value.work == again.work == {}
        assert value.work is not again.work
        assert counted == value and (text is None or hash(counted) == hash(value))
    # A missing, unknown, repeated or surplus argument is a TypeError.
    for name in names:
        if name not in cls._defaults:
            with pytest.raises(TypeError, match=name):
                cls(**{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError, match="nope"):
        cls(**fields, nope=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{names[0]: fields[names[0]]})
    with pytest.raises(TypeError):
        cls(*fields.values(), *[None] * (len(cls.__slots__) - len(names) + 1))


def test_array_fields_compare_by_shape_dtype_and_values():
    def trajectory(emitted):
        return Trajectory(np.zeros(3, np.uint8), emitted, RngKey(1))

    value = trajectory(np.zeros(3, np.uint8))
    assert value == trajectory(np.zeros(3, np.uint8))
    assert value != trajectory(np.array([0, 1, 0], np.uint8))
    assert value != trajectory(np.zeros(3, np.int64))
    assert value != trajectory(np.zeros((3, 1), np.uint8))
    assert value != trajectory([0, 0, 0])


def test_list_fields_compare_item_by_item():
    # A cut block holds lists of arrays (its rows, its ends); each item
    # compares as an array field does, where == on the lists would ask an
    # array for its truth value.
    from bktirt.tracing import _block, _pack_runs

    lengths = np.array([26, 9, 6, 4, 2])
    x, sizes = _pack_runs(np.concatenate([np.arange(n) % 2 for n in lengths]), lengths)
    block = _block(x, sizes, 4)
    assert len(block.rows) > 1 and len(block.ends) > 1
    assert block == _block(x, sizes, 4)
    fields = {name: getattr(block, name) for name in type(block).__slots__}
    changed = [row.copy() for row in block.rows]
    changed[1][0] += 1
    assert type(block)(**{**fields, "rows": changed}) != block
    assert type(block)(**{**fields, "rows": block.rows[:-1]}) != block


def test_value_types_stay_patchable_on_the_class(monkeypatch):
    # A tracer wraps these in place, reading each classmethod from the
    # class's own __dict__.
    assert type(BktParams.__dict__["from_json"]) is classmethod
    assert type(IsingNetwork.__dict__["from_json_file"]) is classmethod
    monkeypatch.setattr(RngKey, "generator", lambda key: key.seed)
    assert RngKey(5).generator() == 5
