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
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import bktirt

from .errors import DomainError, TooLarge
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
    """Comma-separated responses, at least one."""
    if responses := _int_list(text):
        return responses
    raise argparse.ArgumentTypeError(f"expected at least one response, got {text!r}")


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
    return _lib.BktParams(**{name: getattr(args, name, 0.0) for name in _lib.BktParams._FIELDS})


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


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Header and rows as CSV, to stdout or to a file. A file starts with
    the format line and keeps the csv module's CRLF row ends, which its
    digest pins; stdout rows end in LF."""
    import csv

    with _open_output(path) as handle:
        if path is not None:
            handle.write(f"# format_version={FORMAT_VERSION}\n")
        writer = csv.writer(handle, lineterminator="\n" if path is None else "\r\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    rows = (
        [repr(center), iterations, repr(prop), n_obs, repr(float(irf_value))]
        for t in sorted(curves)
        for (center, iterations, prop, n_obs), irf_value in zip(
            curves[t].rows(), _lib.irf_4pl(curves[t].bin_centers, item)
        )
    )
    header = ["bin_center", "iterations", "prop_correct", "n_obs", "irf_value"]
    _write_csv(path, header, rows)


def write_summary_json(summary: dict, path: str) -> None:
    _write_json(summary, path, indent=2)


class _Run:
    """Phase wall times, work counters and the manifest of one command."""

    def __init__(self, args: argparse.Namespace, seeds: list[int]) -> None:
        self.argv = args._argv
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

    def csv(self, path: str | None, header: list[str], rows, **extra) -> int:
        """Write the CSV output as phase ``write_s``, then finish."""
        with self.phase("write_s"):
            _write_csv(path, header, rows)
        return self.finish(path, **extra)

    def json(self, payload: dict, path: str | None) -> int:
        """Write the JSON output as phase ``write_s``, then finish."""
        with self.phase("write_s"):
            _write_json(payload, path)
        return self.finish(path)


def _cmd_stationary(args: argparse.Namespace) -> int:
    dist = _lib.stationary_closed_form(_flag_params(args))
    payload = {"lambda0": dist.lambda0, "lambda1": dist.lambda1}
    if dist.periodic:
        payload["periodic"] = True
    _write_json(payload, None)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    run = _Run(args, [args.seed])
    with run.phase("simulate_s"):
        trajectory = _lib.sample_trajectory(_flag_params(args), args.steps, RngKey(args.seed))
    run.work["steps"] = args.steps
    rows = zip(range(1, args.steps + 1), trajectory.latent, trajectory.emitted)
    return run.csv(args.out, ["t", "latent", "emitted"], rows)


def _cmd_filter(args: argparse.Namespace) -> int:
    run = _Run(args, [])
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


def _cmd_fit_bkt(args: argparse.Namespace) -> int:
    from .tracing import cut_segments

    run = _Run(args, [])
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
    _, _, lengths = panel.skill_block(args.skill)
    run.work.update(
        records=len(panel.records),
        sequences=int(lengths.size),
        responses=int(lengths.sum()),
        em_iterations=report.iterations,
        cut_segments=cut_segments(lengths),
    )
    payload = {**json.loads(report.to_json()), "format_version": FORMAT_VERSION}
    return run.json(payload, args.out)


def _cmd_bridge(args: argparse.Namespace) -> int:
    run = _Run(args, [])
    with run.phase("load_s"):
        params = _read_params(args.params)
    with run.phase("bridge_s"):
        eq = _lib.bkt_to_irt(params)
    import dataclasses

    payload = {"format_version": FORMAT_VERSION, **dataclasses.asdict(eq)}
    return run.json(payload, args.out)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiment import work_counts

    run = _Run(args, [args.seed])
    # Sizes left unset take SimConfig's full-scale defaults.
    flags = {
        "n_people": ("--people", args.people),
        "n_items": ("--items", args.items),
        "replications": ("--reps", args.reps),
    }
    sizes = {name: value for name, (_, value) in flags.items() if value is not None}
    if args.desk and sizes:
        given = ", ".join(flags[name][0] for name in sizes)
        args.error(f"argument --desk: not allowed with {given}")
    config = (_lib.SimConfig.desk if args.desk else _lib.SimConfig)(
        **sizes,
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
    with run.phase("simulate_s"):
        curves = _lib.run_equilibrium_experiment(config)
    run.work.update(work_counts(config))
    summary_path = Path(args.out).with_suffix(".summary.json")
    with run.phase("write_s"):
        item = config.irf()
        # Summarize first: it can reject the run, and then no file is written.
        summary = _lib.summarize_curves(curves, item, args.min_count, _lib.expected_curves(config))
        write_curves_csv(curves, item, args.out)
        write_summary_json({"format_version": FORMAT_VERSION, **summary}, str(summary_path))
    return run.finish(args.out, summary_path)


def _cmd_irf(args: argparse.Namespace) -> int:
    run = _Run(args, [])
    import numpy as np

    item = _lib.Irf4pl(a=args.a, b=args.b, c=args.c, d=args.d)
    with run.phase("evaluate_s"):
        thetas = np.linspace(args.theta_min, args.theta_max, args.points)
        values = _lib.irf_4pl(thetas, item)
    run.work["points"] = args.points
    rows = ([repr(float(theta)), repr(float(p))] for theta, p in zip(thetas, values))
    return run.csv(args.out, ["theta", "p"], rows)


def _cmd_ising(args: argparse.Namespace) -> int:
    from .ising import lookups_per_sweep, require_sweeps_after_burn_in, uniforms_per_sweep

    run = _Run(args, [args.seed])
    with run.phase("load_s"):
        net = _lib.IsingNetwork.from_json_file(args.net)
    require_sweeps_after_burn_in(args.burn_in, args.sweeps)
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
    run.work.update(
        sweeps=args.sweeps,
        site_updates=updates,
        uniforms_drawn=args.sweeps * uniforms_per_sweep(net.n_nodes, args.scan),
        lookups_per_sweep=lookups_per_sweep(net, args.sweeps, args.dynamics, args.scan),
    )
    header = ["state_index", "frequency"] + (["exact_prob"] if args.exact else [])
    rows = (
        [idx, repr(float(freq))] + ([repr(float(exact[idx]))] if args.exact else [])
        for idx, freq in enumerate(freqs)
    )
    return run.csv(args.out, header, rows, diagnostics={"flip_rate": trace.flip_rate()})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bktirt",
        description="Mastery-chain and item-response toolkit",
    )
    parser.add_argument("--version", action="version", version=bktirt.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="closed-form stationary distribution")
    _bkt_flags(p, with_init=False)
    p.set_defaults(handler=_cmd_stationary)

    p = sub.add_parser("simulate", help="sample a latent/response trajectory")
    _bkt_flags(p, with_init=True)
    p.add_argument("--steps", type=_int_at_least(1, _MAX_STEPS), default=100,
                   help=f"trajectory length, 1 to {_MAX_STEPS:,} (default: 100)")
    _add_seed(p)
    p.add_argument("--out", help="CSV path (default: print to stdout)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("filter", help="forward-filter a response sequence")
    p.add_argument("--params", required=True, help="BKT parameter JSON file")
    p.add_argument("--responses", type=_response_list, required=True,
                   help="comma-separated 0/1 responses, e.g. 1,0,1")
    p.add_argument("--out", help="JSON path (default: print to stdout)")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("fit-bkt", help="EM fit of one skill's parameters")
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
    p.set_defaults(handler=_cmd_fit_bkt)

    p = sub.add_parser("bridge", help="equilibrium curve of a parameter set")
    p.add_argument("--params", required=True, help="BKT parameter JSON file")
    p.add_argument("--out", help="JSON path (default: print to stdout)")
    p.set_defaults(handler=_cmd_bridge)

    p = sub.add_parser("experiment", help="population convergence experiment")
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
    p.set_defaults(handler=_cmd_experiment, error=p.error)

    p = sub.add_parser("irf", help="sample an item response curve")
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
    p.set_defaults(handler=_cmd_irf)

    p = sub.add_parser("ising", help="sample an interacting mastery network")
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
    p.set_defaults(handler=_cmd_ising)

    return parser


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        args._argv = list(argv)
        return args.handler(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except DomainError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
