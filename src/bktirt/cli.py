"""Command-line front end.

Subcommands: simulate, filter, fit-bkt, bridge, experiment, irf, ising,
stationary. Structured single-object output is JSON, curves and traces are
CSV, printed to stdout or written to ``--out``; every invocation that writes
files also writes a run manifest (command line, seeds, version, duration,
output digests, phase wall times, work counters) next to its outputs.

Exit codes: 0 success, 1 domain error (printed as ``ClassName: message``),
2 I/O or argument errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import sys
import time
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

# One BLAS thread per command unless the caller set a count: no command's
# work is a large matrix product, and an idle BLAS worker spins on a core.
# Set here, before ``dispatch`` loads numpy, so that `import bktirt` sets
# nothing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import bktirt

from .errors import DomainError, OutOfRange, TooLarge
from .rng import DEFAULT_SEED, RngKey

if TYPE_CHECKING:
    from .experiment import BinnedCurve
    from .params import BktParams, Irf4pl


def __getattr__(name: str):
    # A public library name is the package's, imported on first use (PEP
    # 562) and kept here. Commands look each one up on this module at call
    # time, so a wrapper set here (by a tracer or a test) is the one that
    # runs. Other names, ``__path__`` among them, are not delegated.
    if name not in bktirt.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(bktirt, name)
    return value


# This module as its commands see it: under ``python -m bktirt.cli`` it is
# ``__main__``, not ``bktirt.cli``.
_lib = sys.modules[__name__]

FORMAT_VERSION = 1
# Each memory figure below is what a run adds to the 33 MB an array command
# peaks at with nothing to do (`irf --points 3`). At the step, point and
# site-update caps a run peaked within 0.2 MB of the same run without
# main()'s allocator policy.
# Sampling a trajectory peaks near 75 bytes per step (its uniforms, also
# as Python floats, and the state list), so this cap keeps it near 75 MB.
_MAX_STEPS = 1_000_000
# An irf curve peaks near 36 bytes per point (the theta grid, the curve and
# their temporaries; measured +36 MB per 10^6 points), so this cap keeps it
# near 73 MB.
_MAX_POINTS = 2_000_000
# An experiment peaks near 24 bytes per (person, item) pair (its bin index,
# its mastered count and one grid-sized temporary; measured +48 MB per 2*10^6
# pairs), so this cap keeps it near 400 MB.
_MAX_PAIRS = 2**24
# An ising run holds 2n + 1 to 2n + 4 bytes per sweep (its two uint8 traces
# and one packed state index) plus about 2 MB of buffers for one chunk of
# sweeps, so near 3 bytes per site update at n = 1. tracemalloc measured
# 4.3, 3.4 and 3.1 bytes per site update at n = 1, 2 and 3 with 2^20 sweeps,
# and 3.1 at n = 1 with 2^24, so this keeps it near 52 MB.
_MAX_SITE_UPDATES = 2**24
# CSV rows formatted, and array items converted, per block.
_BLOCK_ROWS = 1 << 14


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one stderr line, without the
    usage block; subcommand parsers inherit it. A value such as -1e3 is
    read as a negative number, not as an option."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_seed(text: str) -> int:
    if text == "auto":
        import secrets

        return secrets.randbits(63)
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {text!r}"
        )
    return int(text)


def _int_at_least(low: int, at_most: int | None = None):
    """argparse converter for an integer >= ``low`` (and <= ``at_most``)."""
    bound = f">= {low}" if at_most is None else f"from {low} to {at_most}"

    def convert(text: str) -> int:
        try:
            if low <= (value := int(text)) and (at_most is None or value <= at_most):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")

    return convert


def _finite_float(above: float | None = None):
    """argparse converter for a finite float, > ``above`` if given."""
    bound = "" if above is None else f" > {above:g}"

    def convert(text: str) -> float:
        try:
            value = float(text)
            if math.isfinite(value) and (above is None or value > above):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")

    return convert


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; empty tokens are skipped."""
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _response_list(text: str) -> list[int]:
    """Comma-separated responses, at least one, none of them empty: a
    skipped token would shift every later attempt back by one."""
    if "" in text.split(","):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated responses, none empty, got {text!r}"
        )
    return _int_list(text)


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=_parse_seed,
        default=DEFAULT_SEED,
        help=f"integer seed, or 'auto' for entropy (default: {DEFAULT_SEED})",
    )


def _bkt_flags(parser: argparse.ArgumentParser, *, with_init: bool = True) -> None:
    if with_init:
        parser.add_argument("--p-init", type=float, default=0.0,
                            help="initial mastery probability (default: 0.0)")
    parser.add_argument("--p-learn", type=float, required=True,
                        help="unmastered -> mastered transition probability")
    parser.add_argument("--p-forget", type=float, default=0.0,
                        help="mastered -> unmastered transition probability (default: 0.0)")
    if with_init:
        parser.add_argument("--p-slip", type=float, default=0.0,
                            help="incorrect-while-mastered probability (default: 0.0)")
        parser.add_argument("--p-guess", type=float, default=0.0,
                            help="correct-while-unmastered probability (default: 0.0)")


def _flag_params(args: argparse.Namespace) -> BktParams:
    """Parameters from the flags ``_bkt_flags`` adds; a flag left out is 0."""
    return _lib.BktParams(**{name: getattr(args, name, 0.0) for name in _lib.BktParams.__slots__})


def _read_params(path: str) -> BktParams:
    return _lib.BktParams.from_json(Path(path).read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _open_output(path: str | None):
    """stdout when ``path`` is None, else the file opened for writing."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _write_csv(path: str | None, header: list[str], lines) -> None:
    """The header and ``lines``, each one row's fields joined by commas, as
    CSV to stdout or to a file. No field holds a comma, quote or line break,
    so none is quoted. A file starts with the format line and its rows end
    in CRLF, which its digest pins; stdout rows end in LF."""
    end = "\n" if path is None else "\r\n"
    lines = iter(lines)
    with _open_output(path) as handle:
        if path is not None:
            handle.write(f"# format_version={FORMAT_VERSION}\n")
        handle.write(",".join(header) + end)
        # One write per block of rows, not one per row.
        for block in iter(lambda: list(islice(lines, _BLOCK_ROWS)), []):
            handle.write(end.join(block) + end)


def _values(array):
    """An array's items as Python numbers, converted one block at a time, so
    that no list of all of them is held."""
    for start in range(0, len(array), _BLOCK_ROWS):
        yield from array[start:start + _BLOCK_ROWS].tolist()


def _write_json(payload: dict, path: str | None, indent: int | None = None) -> None:
    """One JSON document and a newline, to stdout or to a file: compact, or
    indented by ``indent``."""
    separators = (",", ":") if indent is None else None
    with _open_output(path) as handle:
        handle.write(json.dumps(payload, indent=indent, separators=separators) + "\n")


def write_curves_csv(
    curves: dict[int, BinnedCurve], item: Irf4pl, path: str
) -> None:
    """Plot-ready CSV: one row per (bin, iteration count) with the
    superimposable equilibrium curve value."""
    lines = (
        f"{center!r},{iterations},{prop!r},{n_obs},{irf_value!r}"
        for t in sorted(curves)
        for (center, iterations, prop, n_obs), irf_value in zip(
            curves[t].rows(), _lib.irf_4pl(curves[t].bin_centers, item).tolist()
        )
    )
    header = ["bin_center", "iterations", "prop_correct", "n_obs", "irf_value"]
    _write_csv(path, header, lines)


def write_summary_json(summary: dict, path: str) -> None:
    _write_json(summary, path, indent=2)


class _Run:
    """Phase wall times, work counters and the manifest of one command."""

    def __init__(self, argv: list[str], seeds: list[int]) -> None:
        self.argv = list(argv)
        self.seeds = seeds
        self.started = time.time()
        self.phases: dict[str, float] = {}
        self.work: dict[str, int] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the block into ``phases[name]``; a phase entered twice adds up."""
        mark = time.perf_counter()
        yield
        self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - mark

    def finish(self, *paths: str | Path | None, **extra) -> int:
        """Write the manifest beside the first output file, listing every
        output file with its digest; ``extra`` adds top-level keys. A path of
        None is stdout, and a run with no output file writes no manifest."""
        outputs = [Path(path) for path in paths if path is not None]
        if outputs:
            payload = {
                "format_version": FORMAT_VERSION,
                "command": self.argv,
                "seeds": self.seeds,
                "version": bktirt.__version__,
                "duration_s": time.time() - self.started,
                "outputs": [{"path": str(out), "sha256": _sha256(out)} for out in outputs],
                "phases": self.phases,
                "work": self.work,
                **extra,
            }
            _write_json(payload, str(outputs[0].with_suffix(".manifest.json")), indent=2)
        return 0

    def csv(self, path: str | None, header: list[str], lines, **extra) -> int:
        """Write the CSV output as phase ``write_s``, then finish."""
        with self.phase("write_s"):
            _write_csv(path, header, lines)
        return self.finish(path, **extra)

    def json(self, payload: dict, path: str | None) -> int:
        """Write the JSON output as phase ``write_s``, then finish."""
        with self.phase("write_s"):
            _write_json(payload, path)
        return self.finish(path)


def _cmd_stationary(args: argparse.Namespace, run: _Run) -> int:
    dist = _lib.stationary_closed_form(_flag_params(args))
    payload = {"lambda0": dist.lambda0, "lambda1": dist.lambda1}
    if dist.periodic:
        payload["periodic"] = True
    return run.json(payload, None)


def _cmd_simulate(args: argparse.Namespace, run: _Run) -> int:
    with run.phase("simulate_s"):
        trajectory = _lib.sample_trajectory(_flag_params(args), args.steps, RngKey(args.seed))
    run.work["steps"] = args.steps
    lines = map("{},{},{}".format, range(1, args.steps + 1), _values(trajectory.latent),
                _values(trajectory.emitted))
    return run.csv(args.out, ["t", "latent", "emitted"], lines)


def _cmd_filter(args: argparse.Namespace, run: _Run) -> int:
    with run.phase("load_s"):
        params = _read_params(args.params)
    with run.phase("filter_s"):
        result = _lib.forward_filter(params, args.responses)
    run.work["responses"] = len(args.responses)
    payload = {
        "format_version": FORMAT_VERSION,
        "posterior": result.posterior.tolist(),
        "predictive": result.predictive.tolist(),
        "log_likelihood": result.log_likelihood,
    }
    return run.json(payload, args.out)


def _cmd_fit_bkt(args: argparse.Namespace, run: _Run) -> int:
    with run.phase("load_s"):
        panel = _lib.ResponsePanel.from_csv(args.panel)
    if args.init is not None:
        init = _read_params(args.init)
    else:
        init = _lib.BktParams(
            p_init=0.3,
            p_learn=0.2,
            p_forget=0.0 if args.classic else 0.1,
            p_slip=0.15,
            p_guess=0.15,
        )
    with run.phase("fit_s"):
        report = _lib.fit_baum_welch(
            panel,
            args.skill,
            init,
            classic=args.classic,
            identified=args.identified,
            tol=args.tol,
            max_iters=args.max_iters,
        )
    run.work.update(records=len(panel.records), **report.work, em_iterations=report.iterations)
    payload = {**json.loads(report.to_json()), "format_version": FORMAT_VERSION}
    return run.json(payload, args.out)


def _cmd_bridge(args: argparse.Namespace, run: _Run) -> int:
    with run.phase("load_s"):
        params = _read_params(args.params)
    with run.phase("bridge_s"):
        eq = _lib.bkt_to_irt(params)
    payload = {"format_version": FORMAT_VERSION, "theta": eq.theta, "b": eq.b, "c": eq.c,
               "d": eq.d, "p_correct": eq.p_correct}
    return run.json(payload, args.out)


def _experiment_sizes(args: argparse.Namespace) -> dict[str, int]:
    """The sizes given by flag; one left unset takes SimConfig's full-scale
    default. --desk excludes them: a usage error, worded and exited as the
    command's own parser does. The command's row runs this as its check."""
    flags = {
        "n_people": ("--people", args.people),
        "n_items": ("--items", args.items),
        "replications": ("--reps", args.reps),
    }
    sizes = {name: value for name, (_, value) in flags.items() if value is not None}
    if args.desk and sizes:
        given = ", ".join(flags[name][0] for name in sizes)
        _Parser(prog="bktirt experiment").error(f"argument --desk: not allowed with {given}")
    return sizes


def _cmd_experiment(args: argparse.Namespace, run: _Run) -> int:
    from .experiment import work_counts

    config = (_lib.SimConfig.desk if args.desk else _lib.SimConfig)(
        **_experiment_sizes(args),
        iteration_counts=args.iters,
        p_slip=args.slip,
        p_guess=args.guess,
        seed=args.seed,
        bin_width=args.bin_width,
    )
    if (pairs := config.n_people * config.n_items) > _MAX_PAIRS:
        raise TooLarge(
            f"--people {config.n_people} x --items {config.n_items} is {pairs:,} "
            f"pairs, above the budget of {_MAX_PAIRS:,} (about 24 bytes each)"
        )
    # Built first: slip + guess >= 1 is refused before anything is simulated.
    item = config.irf()
    with run.phase("simulate_s"):
        curves = _lib.run_equilibrium_experiment(config)
    run.work.update(work_counts(config, curves))
    summary_path = Path(args.out).with_suffix(".summary.json")
    with run.phase("write_s"):
        # Summarize first: it can reject the run, and then no file is written.
        summary = _lib.summarize_curves(curves, item, args.min_count)
        write_curves_csv(curves, item, args.out)
        write_summary_json({"format_version": FORMAT_VERSION, **summary}, str(summary_path))
    return run.finish(args.out, summary_path)


def _irf_span(args: argparse.Namespace) -> None:
    """The irf row's check: a span that overflows a float is refused."""
    if not math.isfinite(args.theta_max - args.theta_min):
        raise OutOfRange(f"--theta-max {args.theta_max!r} minus --theta-min "
                         f"{args.theta_min!r} overflows a float")


def _cmd_irf(args: argparse.Namespace, run: _Run) -> int:
    import numpy as np

    item = _lib.Irf4pl(a=args.a, b=args.b, c=args.c, d=args.d)
    with run.phase("evaluate_s"):
        thetas = np.linspace(args.theta_min, args.theta_max, args.points)
        values = _lib.irf_4pl(thetas, item)
    run.work["points"] = args.points
    lines = map("{!r},{!r}".format, _values(thetas), _values(values))
    return run.csv(args.out, ["theta", "p"], lines)


def _ising_burn_in(args: argparse.Namespace) -> None:
    """The ising row's check: a burn-in must leave a sweep to count."""
    from .chain import require_sweeps_after_burn_in

    require_sweeps_after_burn_in(args.burn_in, args.sweeps)


def _cmd_ising(args: argparse.Namespace, run: _Run) -> int:
    with run.phase("load_s"):
        net = _lib.IsingNetwork.from_json_file(args.net)
    if (updates := args.sweeps * net.n_nodes) > _MAX_SITE_UPDATES:
        raise TooLarge(
            f"--sweeps {args.sweeps} x {net.n_nodes} nodes is {updates:,} site updates, "
            f"above the budget of {_MAX_SITE_UPDATES:,} (about 3 bytes each)"
        )
    with run.phase("simulate_s"):
        trace = _lib.simulate_field(
            net, args.sweeps, RngKey(args.seed), dynamics=args.dynamics, scan=args.scan
        )
    with run.phase("frequencies_s"):
        freqs = _lib.empirical_state_frequencies(trace, burn_in=args.burn_in)
    with run.phase("exact_s"):
        exact = _lib.boltzmann_exact(net) if args.exact else None
    run.work.update(sweeps=args.sweeps, site_updates=updates, **trace.work)
    header = ["state_index", "frequency"] + (["exact_prob"] if args.exact else [])
    # A frequency is a count over the counted sweeps: few values, each
    # formatted once.
    texts = {freq: repr(freq) for freq in set(_values(freqs))}
    columns = range(len(freqs)), map(texts.__getitem__, _values(freqs))
    if args.exact:
        lines = map("{},{},{!r}".format, *columns, _values(exact))
    else:
        lines = map("{},{}".format, *columns)
    return run.csv(args.out, header, lines, diagnostics={"flip_rate": trace.flip_rate()})


# One row per command, in --help order: its help line, its handler, the
# modules its run needs, loaded before dispatch starts the run's clock so that
# no import falls in a phase or in ``duration_s``, and a check of the parsed
# flags (or None), run before those loads so that an error decided by the
# flags alone loads no numpy. ``stationary`` and ``bridge`` evaluate closed
# forms on floats and list no numpy. A command that draws lists
# ``numpy.random``, which numpy defers to a first ``RngKey.generator()``, and
# ``fit-bkt`` lists ``gzip``, which ``numpy.loadtxt`` imports when it first
# opens a path.
_COMMANDS = {
    "stationary": ("closed-form stationary distribution", _cmd_stationary,
                   ("bktirt.chain",), None),
    "simulate": ("sample a latent/response trajectory", _cmd_simulate,
                 ("numpy.random", "bktirt.chain"), None),
    "filter": ("forward-filter a response sequence", _cmd_filter,
               ("numpy", "bktirt.tracing"), None),
    "fit-bkt": ("EM fit of one skill's parameters", _cmd_fit_bkt,
                ("numpy", "bktirt.tracing", "gzip"), None),
    "bridge": ("equilibrium curve of a parameter set", _cmd_bridge, ("bktirt.bridge",), None),
    "experiment": ("population convergence experiment", _cmd_experiment,
                   ("numpy.random", "bktirt.experiment"), _experiment_sizes),
    "irf": ("sample an item response curve", _cmd_irf, ("numpy", "bktirt.irt"),
            _irf_span),
    "ising": ("sample an interacting mastery network", _cmd_ising,
              ("numpy.random", "bktirt.ising"), _ising_burn_in),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bktirt", description="Mastery-chain and item-response toolkit")
    parser.add_argument("--version", action="version", version=bktirt.__version__)
    # dispatch names a missing command itself (see there).
    sub = parser.add_subparsers(dest="command")
    for name, (text, *_) in _COMMANDS.items():
        sub.add_parser(name, help=text)

    _bkt_flags(sub.choices["stationary"], with_init=False)

    p = sub.choices["simulate"]
    _bkt_flags(p, with_init=True)
    p.add_argument("--steps", type=_int_at_least(1, _MAX_STEPS), default=100,
                   help=f"trajectory length, 1 to {_MAX_STEPS:,} (default: 100)")
    _add_seed(p)
    p.add_argument("--out", help="CSV path (default: print to stdout)")

    p = sub.choices["filter"]
    p.add_argument("--params", required=True, help="BKT parameter JSON file")
    p.add_argument("--responses", type=_response_list, required=True,
                   help="comma-separated 0/1 responses, e.g. 1,0,1")
    p.add_argument("--out", help="JSON path (default: print to stdout)")

    p = sub.choices["fit-bkt"]
    p.add_argument("--panel", required=True, help="response panel CSV")
    p.add_argument("--skill", type=int, required=True, help="skill id to fit")
    p.add_argument("--init", help="starting-point JSON (default: built-in)")
    p.add_argument("--classic", action="store_true", help="pin p_forget to 0")
    p.add_argument("--identified", action="store_true",
                   help="constrain guess and slip below 0.5")
    p.add_argument("--tol", type=_finite_float(above=0.0), default=1e-6,
                   help="relative log-likelihood tolerance, finite and > 0 "
                        "(default: 1e-6)")
    p.add_argument("--max-iters", type=_int_at_least(1), default=500,
                   help="EM iteration cap, >= 1 (default: 500)")
    p.add_argument("--out", help="JSON path (default: print to stdout)")

    p = sub.choices["bridge"]
    p.add_argument("--params", required=True, help="BKT parameter JSON file")
    p.add_argument("--out", help="JSON path (default: print to stdout)")

    p = sub.choices["experiment"]
    p.add_argument("--people", type=_int_at_least(1), default=None,
                   help="number of learners, >= 1 (default: 1000)")
    p.add_argument("--items", type=_int_at_least(1), default=None,
                   help="number of items, >= 1 (default: 100)")
    p.add_argument("--reps", type=_int_at_least(1), default=None,
                   help="replications per pair, >= 1 (default: 1000)")
    p.add_argument("--iters", type=_int_list, default="2,5,50",
                   help="comma-separated chain step counts (default: 2,5,50)")
    p.add_argument("--slip", type=float, default=0.1, help="slip probability (default: 0.1)")
    p.add_argument("--guess", type=float, default=0.1, help="guess probability (default: 0.1)")
    _add_seed(p)
    p.add_argument("--bin-width", type=_finite_float(above=0.0), default=0.25,
                   help="advantage bin width, finite and > 0 (default: 0.25)")
    p.add_argument("--desk", action="store_true",
                   help="reduced preset: 200 people, 50 items, 200 reps "
                        "(excludes --people, --items, --reps)")
    p.add_argument("--min-count", type=_int_at_least(1), default=200,
                   help="bin count threshold for the deviation summary, >= 1 "
                        "(default: 200)")
    p.add_argument("--out", required=True, help="curve CSV path")

    p = sub.choices["irf"]
    p.add_argument("--a", type=_finite_float(), default=1.0,
                   help="discrimination (default: 1.0)")
    p.add_argument("--b", type=_finite_float(), default=0.0,
                   help="difficulty (default: 0.0)")
    p.add_argument("--c", type=float, default=0.0, help="lower asymptote (default: 0.0)")
    p.add_argument("--d", type=float, default=1.0, help="upper asymptote (default: 1.0)")
    p.add_argument("--theta-min", type=_finite_float(), default=-8.0,
                   help="curve start (default: -8.0)")
    p.add_argument("--theta-max", type=_finite_float(), default=8.0,
                   help="curve end (default: 8.0)")
    p.add_argument("--points", type=_int_at_least(1, _MAX_POINTS), default=161,
                   help=f"number of samples, 1 to {_MAX_POINTS:,} (default: 161)")
    p.add_argument("--out", help="CSV path (default: print to stdout)")

    p = sub.choices["ising"]
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--sweeps", type=_int_at_least(1), default=10000,
                   help="full-network update sweeps, >= 1, at most "
                        f"{_MAX_SITE_UPDATES:,} site updates in all (default: 10000)")
    p.add_argument("--dynamics", choices=["glauber", "metropolis"],
                   default="glauber", help="single-site dynamics (default: glauber)")
    p.add_argument("--scan", choices=["fixed", "random"], default="fixed",
                   help="site update order (default: fixed)")
    p.add_argument("--burn-in", type=_int_at_least(0), default=0,
                   help="sweeps dropped before counting, >= 0 and below "
                        "--sweeps (default: 0)")
    _add_seed(p)
    p.add_argument("--exact", action="store_true",
                   help="add the exact Boltzmann column (n <= 20)")
    p.add_argument("--out", required=True, help="state-frequency CSV path")

    return parser


# glibc's mallopt parameters and the values main() gives them for an array
# command. An array above the mmap threshold is mapped afresh and unmapped when
# freed, and free memory above the trim threshold at the heap's top goes back
# to the kernel: each EM iteration or sampler chunk then faults its
# temporaries in again. Raised, freed arrays stay in the heap and are reused.
# Measured: 4/8 MiB ran as fast as 32/64 MiB, with a lower peak. A trim
# threshold of 5 MiB kept 29,499 of the 45,253 minor faults of a 16 x 3,000
# attempt fit, and an mmap threshold of 1 MiB kept all those of an n = 4 ising
# run, whose chunk of sweeps uses about 2 MB of buffers.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 8 << 20


def _keep_freed_pages() -> None:
    """Keep freed arrays in the heap for the rest of the process, under
    glibc; elsewhere do nothing. Only main() reaches this, after numpy has
    loaded ``ctypes``."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if glibc:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def dispatch(argv: list[str], *, freeze_loaded: bool = False) -> int:
    """Run one command line and return its exit code. With
    ``freeze_loaded`` (see ``main``), what is loaded by then is frozen for
    the cyclic collector and the collector is switched on just before the
    command's handler runs, and a command that loads numpy keeps its freed
    arrays in the heap (``_keep_freed_pages``); otherwise the collector and
    the allocator are left alone."""
    try:
        parser = build_parser()
        # parse_args, but with a missing command named only when nothing
        # else is left over: an unknown option before the command is named.
        args, extras = parser.parse_known_args(argv)
        if args.command is None and set(extras) <= {"--"}:
            parser.error("the following arguments are required: command")
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        _, handler, loads, check = _COMMANDS[args.command]
        if check is not None:
            check(args)
        for module in loads:
            # Not importlib.import_module: this shows in python -X importtime.
            __import__(module)
        if freeze_loaded:
            gc.freeze()
            gc.enable()
            if any(module.split(".")[0] == "numpy" for module in loads):
                _keep_freed_pages()
        # The run's clock starts here; a command with --seed records its seed.
        return handler(args, _Run(argv, [args.seed] if "seed" in args else []))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except DomainError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # The process entry of ``bktirt`` and ``python -m bktirt.cli``, which
    # exits when its one command returns. What the command loads (numpy,
    # numpy.random, the package's modules: some 22,000 objects the cyclic
    # collector tracks) lives until then, so the collector is off while it
    # loads and dispatch freezes it all before the handler runs: the run
    # collects only its own cycles, and neither it nor the collections at
    # shutdown walk the loaded objects again.
    gc.disable()
    sys.exit(dispatch(sys.argv[1:], freeze_loaded=True))


if __name__ == "__main__":
    main()
