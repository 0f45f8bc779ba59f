"""Span tracing of one bktirt CLI command, and the per-layer sums of a trace.

Run as a script, it executes one command in-process through
``bktirt.cli.dispatch`` with the package's public functions wrapped where
they are looked up, then writes every span to a JSON file:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json JOB ARG...

A span has a name, start, end, CPU time (all in nanoseconds), parent (the
index of the enclosing span, or -1), job and thread; the file holds one list
per field. Counts (uniforms drawn, records loaded, EM iterations, ...) are
recorded by the same wrappers, per thread, and summed when written. The file
also holds the tracer's own cost in the process (``overhead_ns``): the
wrappers, estimated as the span count times a calibrated cost per traced call,
the calibration, and serializing the spans. Imported as a module it only reads
such files back.

Layers are the package modules: spans are named ``<module>.<call>``. The
cli layer is ``cli.import`` (importing ``bktirt.cli``) and ``cli.dispatch``;
calls into chain, irt and bridge are named ``other.<call>``.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from time import perf_counter_ns, thread_time_ns

LAYERS = ("rng", "experiment", "params", "tracing", "ising", "cli", "other")


class Recorder:
    """Spans and counts of one process, kept in memory until ``dump``.

    Spans are stored column-wise in lists of integers (nanoseconds) and
    strings, which the cyclic garbage collector does not track, so a few
    hundred thousand spans do not slow the traced program's own collections
    and are quick to write. Spans on threads other than the main one also
    record their thread CPU time (see ``summarize``).
    """

    def __init__(self, job: str) -> None:
        self.job = job
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.cpus: list[int] = []
        self.parents: list[int] = []
        self.threads: list[int] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._counts: dict[int, Counter] = {}
        self._main = threading.get_ident()

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span belongs to whatever the main
            # thread is waiting in, e.g. the experiment's pool.map.
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else -1
        with self._lock:
            span = len(self.names)
            self.names.append(name)
            self.cpus.append(0 if tid == self._main else thread_time_ns())
            self.starts.append(perf_counter_ns())
            self.ends.append(0)
            self.parents.append(parent)
            self.threads.append(tid)
        stack.append(span)
        return span

    def end(self, span: int) -> None:
        self.ends[span] = perf_counter_ns()
        tid = self.threads[span]
        if tid != self._main:
            self.cpus[span] = thread_time_ns() - self.cpus[span]
        self._stacks[tid].pop()

    def count(self, name: str, amount: float) -> None:
        tid = threading.get_ident()
        counts = self._counts.get(tid)
        if counts is None:
            counts = self._counts[tid] = Counter()
        counts[name] += amount

    def dump(self, path: str, overhead_ns: dict[str, float]) -> None:
        """Write spans, counts and the tracer's own costs. Serializing the
        spans is timed and added to ``overhead_ns`` as ``dump``."""
        counts: Counter = Counter()
        for per_thread in self._counts.values():
            counts.update(per_thread)
        spans = {
            "name": self.names, "start": self.starts, "end": self.ends,
            "cpu": self.cpus, "parent": self.parents,
            "job": [self.job] * len(self.names), "thread": self.threads,
        }
        start = perf_counter_ns()
        spans_text = json.dumps(spans)
        overhead_ns = {**overhead_ns, "dump": perf_counter_ns() - start}
        head = json.dumps({"main_thread": self._main, "counts": dict(counts),
                           "overhead_ns": overhead_ns})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(head[:-1] + ', "spans": ' + spans_text + "}")


def _wrap(rec: Recorder, name: str, fn, on_result=None):
    def traced(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    return traced


class CountingGenerator:
    """Forwards to a numpy Generator. ``random`` and ``permutation`` calls
    are timed as spans and the uniforms ``random`` returns are counted; any
    other method passes through untimed."""

    __slots__ = ("_gen", "_rec")

    def __init__(self, gen, rec: Recorder) -> None:
        self._gen = gen
        self._rec = rec

    def random(self, *args, **kwargs):
        span = self._rec.begin("rng.random")
        try:
            out = self._gen.random(*args, **kwargs)
        finally:
            self._rec.end(span)
        self._rec.count("rng.uniforms_drawn", getattr(out, "size", 1))
        return out

    def permutation(self, *args, **kwargs):
        span = self._rec.begin("rng.permutation")
        try:
            return self._gen.permutation(*args, **kwargs)
        finally:
            self._rec.end(span)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def install(rec: Recorder) -> None:
    """Wrap the public calls a CLI command makes, where they are looked up."""
    import bktirt.cli as cli
    import bktirt.experiment as experiment
    from bktirt.ising import IsingNetwork
    from bktirt.params import BktParams, ResponsePanel
    from bktirt.rng import RngKey

    def on_run(result, config, *args, **kwargs):
        rec.count("experiment.pair_reps", config.n_people * config.n_items * config.replications)

    def on_fit(report, *args, **kwargs):
        rec.count("tracing.em_iterations", report.iterations)
        rec.count("tracing.estep_runs", report.iterations + 1)

    def on_simulate(trace, net, sweeps, *args, **kwargs):
        rec.count("ising.site_updates", sweeps * net.n_nodes)
        rec.count("ising.trace_bytes", trace.latent.nbytes + trace.emitted.nbytes)

    def on_panel(panel, *args, **kwargs):
        rec.count("params.records", len(panel.records))

    def on_sequences(sequences, *args, **kwargs):
        rec.count("params.responses", sum(len(seq) for seq in sequences.values()))

    in_cli = {
        "run_equilibrium_experiment": ("experiment.run", on_run),
        "summarize_curves": ("experiment.summarize", None),
        "write_curves_csv": ("experiment.write", None),
        "write_summary_json": ("experiment.write", None),
        "fit_baum_welch": ("tracing.fit", on_fit),
        "simulate_field": ("ising.simulate", on_simulate),
        "empirical_state_frequencies": ("ising.frequencies", None),
        "boltzmann_exact": ("ising.exact", None),
        "bkt_to_irt": ("other.bkt_to_irt", None),
        "sample_trajectory": ("other.sample_trajectory", None),
        "stationary_closed_form": ("other.stationary_closed_form", None),
        "irf_4pl": ("other.irf_4pl", None),
    }
    for attr, (name, on_result) in in_cli.items():
        setattr(cli, attr, _wrap(rec, name, getattr(cli, attr), on_result))
    experiment.irf_4pl = _wrap(rec, "other.irf_4pl", experiment.irf_4pl)

    original_generator = RngKey.generator

    def generator(self):
        span = rec.begin("rng.generator")
        gen = original_generator(self)
        rec.end(span)
        return CountingGenerator(gen, rec)

    RngKey.generator = generator

    ResponsePanel.sequences = _wrap(
        rec, "params.sequences", ResponsePanel.sequences, on_sequences
    )
    for cls, attr, name, on_result in (
        (ResponsePanel, "from_csv", "params.panel_load", on_panel),
        (BktParams, "from_json", "params.from_json", None),
        (IsingNetwork, "from_json_file", "ising.load", None),
    ):
        fn = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(_wrap(rec, name, fn, on_result)))


def _call_cost_ns(worker: bool, calls: int = 500, blocks: int = 5) -> float:
    """Median wall time one traced call (span and count) adds over a bare
    call, on the main thread or on a worker thread."""
    rec = Recorder("calibration")

    def bare():
        return None

    traced = _wrap(rec, "calibration", bare, lambda *_: rec.count("calibration", 1))
    costs: list[float] = []

    def measure() -> None:
        for _ in range(blocks):
            t0 = perf_counter_ns()
            for _ in range(calls):
                bare()
            t1 = perf_counter_ns()
            for _ in range(calls):
                traced()
            t2 = perf_counter_ns()
            costs.append(max(0.0, ((t2 - t1) - (t1 - t0)) / calls))

    if worker:
        thread = threading.Thread(target=measure)
        thread.start()
        thread.join()
    else:
        measure()
    return sorted(costs)[blocks // 2]


def overhead_ns(rec: Recorder) -> dict[str, float]:
    """What tracing adds to the process wall, apart from writing the spans:
    the wrappers (span count times a calibrated cost per traced call) and the
    calibration itself."""
    start = perf_counter_ns()
    on_worker = sum(1 for tid in rec.threads if tid != rec._main)
    wrappers = (
        (len(rec.names) - on_worker) * _call_cost_ns(worker=False)
        + (on_worker * _call_cost_ns(worker=True) if on_worker else 0.0)
    )
    return {"wrappers": wrappers, "calibration": perf_counter_ns() - start}


def main(argv: list[str]) -> int:
    spans_path, job, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(job)
    span = rec.begin("cli.import")
    import bktirt.cli
    rec.end(span)
    install(rec)
    span = rec.begin("cli.dispatch")
    try:
        code = bktirt.cli.dispatch(cli_args)
    finally:
        rec.end(span)
    rec.dump(spans_path, overhead_ns(rec))
    return code


def summarize(path: str) -> dict[str, float]:
    """Per-name inclusive and self seconds, span counts and work counts.

    Keys: ``incl:<name>``, ``self:<name>``, ``n:<name>``, ``self:<layer>``,
    ``trace.overhead_s`` (the tracer's own cost) and the recorded counts
    under their own names.

    A span on the main thread lasts its wall time. A span on another thread
    (the experiment's worker pool) lasts its thread CPU time: its wall time
    also covers waiting for the interpreter lock while the other worker runs.
    Self time is a span's duration minus its children's: the union of the
    wall intervals of children on its own thread, plus the durations of
    children on other threads.
    """
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    main = trace["main_thread"]
    names, threads = spans["name"], spans["thread"]
    starts = [t * 1e-9 for t in spans["start"]]
    ends = [t * 1e-9 for t in spans["end"]]
    duration = [
        ends[i] - starts[i] if threads[i] == main else spans["cpu"][i] * 1e-9
        for i in range(len(names))
    ]
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out: Counter = Counter(trace["counts"])
    out["trace.overhead_s"] = sum(trace["overhead_ns"].values()) * 1e-9
    for i, name in enumerate(names):
        kids = children.get(i, ())
        covered = sum(duration[k] for k in kids if threads[k] != main or threads[i] != main)
        cursor = starts[i]
        same = sorted((starts[k], ends[k]) for k in kids if threads[k] == main == threads[i])
        for lo, hi in same:
            lo, hi = max(lo, cursor), min(hi, ends[i])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_time = duration[i] - covered
        out["incl:" + name] += duration[i]
        out["self:" + name] += self_time
        out["n:" + name] += 1
        out["self:" + name.split(".", 1)[0]] += self_time
    return dict(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
