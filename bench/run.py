"""bktirt benchmark: real CLI jobs timed end to end, public calls traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bktirt checkout; it needs ``src/bktirt`` and
writes only under ``.bench_work/``. Workloads, jobs and the reasons for them
are in ``bench/NOTES.md``.

Load shape: a closed loop with one client. Each command is a fresh
``python -m bktirt.cli ...`` process with ``PYTHONPATH=src``, started only
after the previous one has exited. A workload has two jobs; one round runs
each once, and rounds repeat until ``--seconds`` have passed (at least three
rounds untraced, one traced), or until a round in which a command was killed
for running longer than 40 s.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median CLI cold
start, two run before every job, scaled by ``STARTUP_REFERENCE_S``),
``job1_s`` and ``job2_s`` (mean wall of each job, scaled by
``REFERENCE_S``) and ``peak_rss_mb`` (largest job RSS). ``--trace 1`` runs
every job once untraced and once traced (``bench/tracer.py``) with the same
seed, requires identical output digests, and reports per-layer metrics
suffixed ``.job1``/``.job2``.
Metric names and units are read from ``BENCHMARK.json``. Every job output is
checked by ``bench/oracles.py``; a failed check, a non-zero exit or a digest
mismatch counts the job as failed.

A report goes to stderr; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MIN_ROUNDS = {0: 3, 1: 1}
# A shared host switches between fast and slow spells that last seconds and
# differ by 20% or more, and how much of a run falls in slow spells changes
# from run to run. Untraced, a fixed reference computation runs before every
# cold start and job, and job times are scaled by REFERENCE_S over the mean of
# the run's reference walls: a time in reference seconds, the wall on a host
# that runs the reference computation in REFERENCE_S (about its mean on a
# two-core Xeon VM). A job's time is its mean wall over the run, so that it
# and the references average over the same spells; a median of a few
# samples would pick one spell or the other.
REFERENCE_S = 0.05
REFERENCE_LOOP = 500_000
REFERENCE_DRAWS = 2_000_000
# A cold start is process creation, dynamic loading and unmarshalling, which
# drift apart from the computation above (their ratio moved by a third within
# ten minutes). So set-up is scaled instead by a bare interpreter importing
# numpy, the program's one dependency, run before every cold start: by
# STARTUP_REFERENCE_S over its median wall (about the median on the same VM).
STARTUP_REFERENCE = ["-c", "import numpy"]
STARTUP_REFERENCE_S = 0.2
# A command this slow is killed and its job fails. The longest command takes
# about 10 s; with one failing round at most, a run ends well within 180 s.
COMMAND_TIMEOUT_S = 40.0
TRIVIAL = ["stationary", "--p-learn", "0.3", "--p-forget", "0.1"]
COLD_STARTS_PER_JOB = 2


def metric_spec() -> tuple[dict[str, str], dict[int, dict[str, str]]]:
    """End-to-end metric units by name, and per-layer metric units by job slot
    and name, as ``BENCHMARK.json`` lists them (per-layer names end in
    ``.job1`` or ``.job2``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer: dict[int, dict[str, str]] = {1: {}, 2: {}}
    for m in spec["per_layer"]:
        name, slot = m["name"].rsplit(".job", 1)
        per_layer[int(slot)][name] = m["unit"]
    return end_to_end, per_layer


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str
    killed: bool = False


@dataclass
class JobRun:
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None
    killed: bool = False


def last_line(text: str) -> str:
    lines = text.splitlines()
    return lines[-1] if lines else ""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BKT_IRT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], err_path: Path, env: dict[str, str]) -> Proc:
    """Run one process to exit; wall from spawn to reap, CPU and peak RSS of
    that child alone (``os.wait4``)."""
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", errors="replace").strip()
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, text, killed=wall >= COMMAND_TIMEOUT_S)


def reference_s() -> float:
    """Wall seconds of a fixed computation: an interpreted loop, then uniform
    draws and a comparison in numpy."""
    import numpy

    rng = numpy.random.default_rng(0)
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    int((rng.random(REFERENCE_DRAWS) < 0.5).sum())
    return time.perf_counter() - start


class Runner:
    """Runs jobs as CLI processes and checks what they wrote."""

    def __init__(self, work: Path) -> None:
        self.env = child_env()
        self.err = work / "stderr.txt"
        self.plain = work / "plain"
        self.traced = work / "traced"
        self.plain.mkdir()
        self.traced.mkdir()
        self._first: dict[str, tuple] = {}
        self._verdicts: dict[tuple, str | None] = {}

    def cli(self, args: list[str]) -> Proc:
        return spawn([sys.executable, "-m", "bktirt.cli", *args], self.err, self.env)

    def startup_reference(self) -> float:
        return spawn([sys.executable, *STARTUP_REFERENCE], self.err, self.env).wall

    def run(self, job) -> JobRun:
        wall = cpu = rss = 0.0
        failure = None
        killed = False
        for command in job.commands:
            proc = self.cli(command.argv(self.plain))
            wall += proc.wall
            cpu += proc.cpu
            rss = max(rss, proc.rss_mb)
            killed = killed or proc.killed
            if proc.killed and failure is None:
                failure = f"killed after {COMMAND_TIMEOUT_S:.0f} s"
            elif proc.code != 0 and failure is None:
                failure = f"exit {proc.code}: {last_line(proc.stderr)}"
        return JobRun(wall, cpu, rss, failure or self.verify(job), killed)

    def verify(self, job) -> str | None:
        """Digests must repeat across runs of a job; the oracle runs once per
        distinct output."""
        try:
            digests = output_digests(job, self.plain)
        except (OSError, ValueError, KeyError) as exc:
            return f"manifest unreadable: {exc}"
        if self._first.setdefault(job.name, digests) != digests:
            return "output differs from an earlier run with the same seed"
        if digests not in self._verdicts:
            try:
                self._verdicts[digests] = job.check(self.plain)
            except Exception as exc:  # a malformed output fails the job, not the run
                self._verdicts[digests] = f"check raised {type(exc).__name__}: {exc}"
        return self._verdicts[digests]

    def run_traced(self, job) -> tuple[Proc, Counter]:
        """Every command of the job under the tracer; wall and trace sums."""
        total = Proc(0.0, 0.0, 0.0, 0, "")
        sums: Counter = Counter()
        for i, command in enumerate(job.commands):
            spans = self.traced / f"{job.name}{i}.spans.json"
            proc = spawn(
                [sys.executable, str(BENCH / "tracer.py"), str(spans), job.name,
                 *command.argv(self.traced)],
                self.err, self.env,
            )
            total.wall += proc.wall
            total.cpu += proc.cpu
            total.killed = total.killed or proc.killed
            if proc.code != 0:
                total.code = proc.code
                total.stderr = proc.stderr
                continue
            summary = tracer.summarize(str(spans))
            # Per process: one fit, so E-step runs times its responses.
            summary["tracing.response_esteps"] = (
                summary.get("params.responses", 0) * summary.get("tracing.estep_runs", 0)
            )
            sums.update(summary)
        return total, sums


def output_digests(job, out_dir: Path) -> tuple:
    digests = []
    for command in job.commands:
        manifest = json.loads(command.manifest(out_dir).read_text(encoding="utf-8"))
        digests.extend(entry["sha256"] for entry in manifest["outputs"])
    return tuple(digests)


def output_bytes(job, out_dir: Path) -> int:
    total = 0
    for command in job.commands:
        path = command.manifest(out_dir)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        total += path.stat().st_size
        total += sum(Path(entry["path"]).stat().st_size for entry in manifest["outputs"])
    return total


def layer_metrics(s: Counter, plain: JobRun, written: int) -> dict[str, float]:
    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    draw_s = s["incl:rng.random"] + s["incl:rng.permutation"]
    values = {
        "rng.generator_calls": s["n:rng.generator"],
        "rng.generator_s": s["incl:rng.generator"],
        "rng.uniforms_drawn": s["rng.uniforms_drawn"],
        "rng.draw_s": draw_s,
        "rng.ns_per_uniform": per(s["incl:rng.random"], s["rng.uniforms_drawn"], 1e9),
        "rng.self_s": s["self:rng"],
        "experiment.run_s": s["incl:experiment.run"],
        "experiment.kernel_self_s": s["self:experiment.run"],
        "experiment.ns_per_pair_rep": per(s["self:experiment.run"], s["experiment.pair_reps"], 1e9),
        "experiment.summarize_s": s["incl:experiment.summarize"],
        "experiment.write_s": s["incl:experiment.write"],
        "experiment.self_s": s["self:experiment"],
        "params.panel_load_s": s["incl:params.panel_load"],
        "params.records": s["params.records"],
        "params.us_per_record": per(s["incl:params.panel_load"], s["params.records"], 1e6),
        "params.sequences_s": s["incl:params.sequences"],
        "params.self_s": s["self:params"],
        "tracing.fit_s": s["self:tracing.fit"],
        "tracing.em_iterations": s["tracing.em_iterations"],
        "tracing.ns_per_response_iter": per(s["self:tracing.fit"], s["tracing.response_esteps"], 1e9),
        "tracing.self_s": s["self:tracing"],
        "ising.simulate_s": s["incl:ising.simulate"],
        "ising.ns_per_site_update": per(s["incl:ising.simulate"], s["ising.site_updates"], 1e9),
        "ising.frequencies_s": s["incl:ising.frequencies"],
        "ising.exact_s": s["incl:ising.exact"],
        "ising.trace_bytes": s["ising.trace_bytes"],
        "ising.self_s": s["self:ising"],
        "cli.self_s": s["self:cli.dispatch"],
        "cli.import_s": s["incl:cli.import"],
        "cli.output_bytes": written,
        "other.self_s": s["self:other"],
        "trace.overhead_s": s["trace.overhead_s"],
        "job.cpu_per_wall": plain.cpu / plain.wall,
    }
    return values


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
    }


def log(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


def accounting(sums: Counter, plain: JobRun, traced_wall: float) -> dict[str, float]:
    """How the traced spans account for the untraced job wall.

    ``accounted_s`` is the self time of every layer, ``cli.import`` and
    ``cli.dispatch`` included; ``outside_s`` is the rest of the traced wall
    (interpreter start and exit, and the tracer's calibration and span dump).
    ``gap_s`` is the untraced wall minus the traced wall less the tracer's
    own cost: what tracing does not explain, run-to-run noise included.
    """
    accounted = sum(sums["self:" + layer] for layer in tracer.LAYERS)
    overhead = sums["trace.overhead_s"]
    return {
        "untraced_s": plain.wall,
        "traced_s": traced_wall,
        "accounted_s": accounted,
        "outside_s": traced_wall - accounted,
        "overhead_s": overhead,
        "gap_s": plain.wall - (traced_wall - overhead),
    }


def measure(runner: Runner, jobs, seconds: int, traced: bool) -> tuple[list[dict], dict]:
    """Rounds of every job until the time is spent, or until a round in which
    a command was killed for running too long.

    Returns one record per job run and, untraced, lists of walls: the CLI
    cold starts run before each job (``cold``), the startup reference run
    before each of them (``startup``) and the reference computation run
    before every cold start and job (``reference``). All are spread over the whole run,
    so that they meet the machine's fast and slow spells in the same shares
    as the jobs do.
    """
    records = []
    walls: dict[str, list[float]] = {"cold": [], "startup": [], "reference": []}
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for slot, job in enumerate(jobs, start=1):
            if not traced:
                for _ in range(COLD_STARTS_PER_JOB):
                    walls["startup"].append(runner.startup_reference())
                    walls["reference"].append(reference_s())
                    walls["cold"].append(runner.cli(TRIVIAL).wall)
                walls["reference"].append(reference_s())
            plain = runner.run(job)
            records.append({"job": job.name, "slot": slot, "traced": False, "run": plain})
            if not traced or plain.killed:
                continue
            proc, sums = runner.run_traced(job)
            failure = None
            if proc.code != 0:
                failure = f"traced exit {proc.code}: {last_line(proc.stderr)}"
            else:
                try:
                    if output_digests(job, runner.traced) != output_digests(job, runner.plain):
                        failure = "traced output digests differ from the untraced run"
                except (OSError, ValueError, KeyError) as exc:
                    failure = f"traced manifest unreadable: {exc}"
            # Identical outputs share the untraced run's oracle verdict.
            failure = failure or plain.failure
            layers = account = None
            if proc.code == 0:
                layers = layer_metrics(sums, plain, output_bytes(job, runner.traced))
                account = accounting(sums, plain, proc.wall)
            records.append({
                "job": job.name, "slot": slot, "traced": True,
                "run": JobRun(proc.wall, proc.cpu, 0.0, failure, proc.killed),
                "layers": layers, "accounting": account,
            })
        rounds += 1
        now = time.perf_counter()
        if any(r["run"].killed for r in records):
            return records, walls
        if rounds >= MIN_ROUNDS[int(traced)] and (now - start) + (now - round_start) > seconds:
            return records, walls


def median_of(records: list[dict], slot: int, key) -> float:
    return statistics.median(key(r) for r in records if r["slot"] == slot)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bktirt" / "cli.py").is_file():
        log(f"bench: {SRC / 'bktirt'} not found; run from the root of a bktirt checkout")
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    end_to_end, per_layer = metric_spec()
    env = environment()
    log(f"bench: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    log("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    jobs = workloads.WORKLOADS[args.workload](args.seed, work / "inputs")
    runner = Runner(work)
    warm = runner.cli(TRIVIAL)  # also writes the bytecode cache
    if warm.code != 0:
        log(f"bench: the CLI does not start (exit {warm.code}): {warm.stderr}")
        return 1

    records, walls = measure(runner, jobs, args.seconds, traced=bool(args.trace))

    failures = [r for r in records if r["run"].failure is not None]
    for r in failures:
        log(f"FAILED {r['job']}{' (traced)' if r['traced'] else ''}: {r['run'].failure}")
    plain = [r for r in records if not r["traced"]]
    metrics: dict[str, dict] = {}
    if args.trace:
        traced = [r for r in records if r["traced"] and r["layers"] is not None]
        columns = ("untraced_s", "traced_s", "accounted_s", "outside_s", "overhead_s", "gap_s")
        log(f"{'job':8} " + " ".join(f"{c:>11}" for c in columns))
        for r in traced:
            log(f"{r['job']:8} " + " ".join(f"{r['accounting'][c]:11.3f}" for c in columns))
        for slot, units in per_layer.items():
            for name, unit in units.items():
                values = [r["layers"][name] for r in traced if r["slot"] == slot]
                if values:
                    metrics[f"{name}.job{slot}"] = {"value": statistics.median(values), "unit": unit}
    else:
        speed = REFERENCE_S / statistics.fmean(walls["reference"])
        startup_speed = STARTUP_REFERENCE_S / statistics.median(walls["startup"])
        values = {
            "setup_s": statistics.median(walls["cold"]) * startup_speed,
            "job1_s": statistics.fmean(r["run"].wall for r in plain if r["slot"] == 1) * speed,
            "job2_s": statistics.fmean(r["run"].wall for r in plain if r["slot"] == 2) * speed,
            "peak_rss_mb": max(r["run"].rss_mb for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}
        log(f"reference speed {speed:.3f}: mean reference {statistics.fmean(walls['reference']):.4f} s "
            f"over {len(walls['reference'])} runs, REFERENCE_S {REFERENCE_S} s")
        log(f"startup speed {startup_speed:.3f}: median startup reference "
            f"{statistics.median(walls['startup']):.4f} s over {len(walls['startup'])} runs, "
            f"STARTUP_REFERENCE_S {STARTUP_REFERENCE_S} s")
        log(f"{'job':8} {'runs':>4} {'ref_s':>7} {'mean_s':>7} {'min_s':>7} {'max_s':>7} "
            f"{'cpu/wall':>8} {'rss_mb':>7}")
        for slot, job in enumerate(jobs, start=1):
            runs = [r["run"].wall for r in plain if r["slot"] == slot]
            log(f"{job.name:8} {len(runs):4d} {statistics.fmean(runs) * speed:7.3f} "
                f"{statistics.fmean(runs):7.3f} {min(runs):7.3f} {max(runs):7.3f} "
                f"{median_of(plain, slot, lambda r: r['run'].cpu / r['run'].wall):8.2f} "
                f"{max(r['run'].rss_mb for r in plain if r['slot'] == slot):7.1f}")
        log(f"setup_s {metrics['setup_s']['value']:.4f} (median of {len(walls['cold'])} cold starts "
            f"times startup speed; wall {statistics.median(walls['cold']):.4f} s)")
        log("ref_s is in reference seconds (mean wall times speed); the rest is wall")
    log(f"error_rate {len(failures) / len(records):.4f} ({len(failures)}/{len(records)} job runs)")

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(work / "result.json", "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "environment": env, "walls": walls,
                   "runs": [{"job": r["job"], "traced": r["traced"], **vars(r["run"]),
                             "accounting": r.get("accounting")} for r in records],
                   "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
