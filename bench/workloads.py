"""The benchmark's workloads: seeded inputs, CLI jobs and their checks.

A workload turns a seed into input files and two jobs. A job is what a user
runs to get one result: one or more ``bktirt`` CLI commands run one after
another, and a check of what they wrote. Every job seed and input is derived
from the workload seed; the program sees only the files and flags built here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--out <dir>/<out>`` is appended when it runs."""

    args: list[str]
    out: str

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir / self.out)]

    def manifest(self, out_dir: Path) -> Path:
        return out_dir / (Path(self.out).stem + ".manifest.json")


@dataclass(frozen=True)
class Job:
    """Commands run back to back, and a check of their outputs in a directory."""

    name: str
    commands: list[Command]
    check: Callable[[Path], str | None] = field(repr=False)


def _job_seeds(rng: np.random.Generator, count: int) -> list[str]:
    return [str(int(s)) for s in rng.integers(0, 2**31, size=count)]


def experiment(seed: int, inputs: Path) -> list[Job]:
    """``experiment --desk`` (uniform draws dominate) and a wide pair grid with
    few reps (keyed-generator creation and per-pair overhead dominate)."""
    from bktirt.experiment import _POPULATION_STREAM, SimConfig, draw_population
    from bktirt.rng import RngKey

    desk_seed, wide_seed = _job_seeds(np.random.default_rng(seed), 2)
    desk = SimConfig.desk(seed=int(desk_seed))
    wide = SimConfig(
        n_people=1000, n_items=100, replications=10, iteration_counts=(1, 2, 4),
        seed=int(wide_seed),
    )

    def check(config: SimConfig, curves: str) -> Callable[[Path], str | None]:
        def run(out_dir: Path) -> str | None:
            population = draw_population(config, RngKey(config.seed).child(_POPULATION_STREAM))
            return oracles.check_experiment(str(out_dir / curves), config, population)
        return run

    return [
        Job("desk", [Command(["experiment", "--desk", "--seed", desk_seed], "desk.csv")], check(desk, "desk.csv")),
        Job(
            "wide",
            [Command(
                ["experiment", "--people", "1000", "--items", "100", "--reps", "10",
                 "--iters", "1,2,4", "--seed", wide_seed],
                "wide.csv",
            )],
            check(wide, "wide.csv"),
        ),
    ]


# Panel shape: skills x learners, each learner answering every skill with a
# sequence length drawn from 5..60, so the E-step sees many length buckets.
PANEL_SKILLS = 2
PANEL_LEARNERS = 3000
PANEL_LENGTHS = (5, 60)
PANEL_ITEMS = 20
# Long panel: a few learners with long histories, one length bucket, so the
# E-step's per-attempt overhead dominates instead of its per-learner work.
LONG_LEARNERS = 16
LONG_LENGTH = 3000
LONG_INIT = {"p_init": 0.3, "p_learn": 0.2, "p_forget": 0.1, "p_slip": 0.15, "p_guess": 0.15}
# Every fit runs a fixed number of EM iterations: a tolerance no relative
# improvement falls below, and an iteration cap. Under the CLI's default
# tolerance the count depends on the seed (4 to 9 per skill), and so would
# the job's wall time. The default tolerance is met within 9 iterations on
# every seed tried, so FIT_ITERATIONS leaves the fit at least as converged.
FIT_ITERATIONS = 10
LONG_ITERATIONS = 15
EM_TOL = "1e-300"


def _draw_classic(rng: np.random.Generator) -> dict[str, float]:
    return {
        "p_init": float(rng.uniform(0.1, 0.4)),
        "p_learn": float(rng.uniform(0.1, 0.3)),
        "p_forget": 0.0,
        "p_slip": float(rng.uniform(0.05, 0.15)),
        "p_guess": float(rng.uniform(0.05, 0.2)),
    }


def _write_records(path: Path, blocks: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("person_id,item_id,skill_id,attempt,correct\n")
        np.savetxt(handle, np.vstack(blocks), fmt="%d", delimiter=",")


def _write_panel(rng: np.random.Generator, path: Path) -> list[dict[str, float]]:
    """Classic-chain panel; returns the generating parameters per skill.

    With p_forget = 0 a learner is mastered from attempt T on, where T = 1 if
    the initial state is mastered and 1 + Geometric(p_learn) otherwise.
    """
    truths = []
    blocks = []
    for skill in range(PANEL_SKILLS):
        truth = _draw_classic(rng)
        truths.append(truth)
        lengths = rng.integers(PANEL_LENGTHS[0], PANEL_LENGTHS[1] + 1, size=PANEL_LEARNERS)
        first = np.where(
            rng.random(PANEL_LEARNERS) < truth["p_init"],
            1,
            1 + rng.geometric(truth["p_learn"], size=PANEL_LEARNERS),
        )
        person = np.repeat(np.arange(PANEL_LEARNERS), lengths)
        attempt = np.arange(person.size) - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
        mastered = attempt >= first[person]
        p_correct = np.where(mastered, 1.0 - truth["p_slip"], truth["p_guess"])
        correct = (rng.random(person.size) < p_correct).astype(np.int64)
        item = rng.integers(0, PANEL_ITEMS, size=person.size)
        blocks.append(np.column_stack([person, item, np.full(person.size, skill), attempt, correct]))
    _write_records(path, blocks)
    return truths


def _write_long_panel(rng: np.random.Generator, path: Path) -> np.ndarray:
    """One skill, LONG_LEARNERS learners of LONG_LENGTH attempts each, drawn
    from a chain with forgetting; returns the (learners, attempts) responses."""
    truth = {
        "p_init": float(rng.uniform(0.1, 0.4)),
        "p_learn": float(rng.uniform(0.05, 0.2)),
        "p_forget": float(rng.uniform(0.02, 0.08)),
        "p_slip": float(rng.uniform(0.05, 0.15)),
        "p_guess": float(rng.uniform(0.05, 0.2)),
    }
    moves = rng.random((LONG_LENGTH, LONG_LEARNERS))
    emits = rng.random((LONG_LENGTH, LONG_LEARNERS))
    latent = rng.random(LONG_LEARNERS) < truth["p_init"]
    correct = np.empty((LONG_LENGTH, LONG_LEARNERS), dtype=np.int64)
    for t in range(LONG_LENGTH):
        if t > 0:
            latent = moves[t] < np.where(latent, 1.0 - truth["p_forget"], truth["p_learn"])
        correct[t] = emits[t] < np.where(latent, 1.0 - truth["p_slip"], truth["p_guess"])
    person = np.repeat(np.arange(LONG_LEARNERS), LONG_LENGTH)
    attempt = np.tile(np.arange(1, LONG_LENGTH + 1), LONG_LEARNERS)
    item = rng.integers(0, PANEL_ITEMS, size=person.size)
    responses = correct.T
    _write_records(path, [np.column_stack(
        [person, item, np.zeros_like(person), attempt, responses.ravel()])])
    return responses


def panel_fit(seed: int, inputs: Path) -> list[Job]:
    """EM fit of every skill of a classic panel (many short sequences), and
    an EM fit with forgetting of a panel of a few long sequences."""
    rng = np.random.default_rng(seed)
    panel = inputs / "panel.csv"
    truths = _write_panel(rng, panel)
    long_panel = inputs / "long.csv"
    responses = _write_long_panel(rng, long_panel)
    long_init = inputs / "long_init.json"
    long_init.write_text(json.dumps(LONG_INIT), encoding="utf-8")

    fit_commands = [
        Command(
            ["fit-bkt", "--panel", str(panel), "--skill", str(skill), "--classic",
             "--identified", "--tol", EM_TOL, "--max-iters", str(FIT_ITERATIONS)],
            f"fit{skill}.json",
        )
        for skill in range(PANEL_SKILLS)
    ]

    def check_fit(out_dir: Path) -> str | None:
        for skill, truth in enumerate(truths):
            reason = oracles.check_fit(str(out_dir / f"fit{skill}.json"), truth)
            if reason is not None:
                return f"skill {skill}: {reason}"
        return None

    long_command = Command(
        ["fit-bkt", "--panel", str(long_panel), "--skill", "0", "--init", str(long_init),
         "--identified", "--tol", EM_TOL, "--max-iters", str(LONG_ITERATIONS)],
        "long.json",
    )
    return [
        Job("fit", fit_commands, check_fit),
        Job("long", [long_command],
            lambda out_dir: oracles.check_em(str(out_dir / "long.json"), LONG_INIT, responses)),
    ]


def _write_network(rng: np.random.Generator, n: int, coupling: float, path: Path) -> dict:
    network = {
        "n": n,
        "couplings": [
            [i, j, float(rng.uniform(-coupling, coupling))]
            for i in range(n) for j in range(i + 1, n)
        ],
        "fields": [float(h) for h in rng.uniform(-1.0, 1.0, size=n)],
        "emissions": [[float(g), float(s)] for g, s in rng.uniform(0.05, 0.2, size=(n, 2))],
    }
    path.write_text(json.dumps(network), encoding="utf-8")
    return network


def ising(seed: int, inputs: Path) -> list[Job]:
    """All-pairs networks: n=4 on the fixed-scan table path, n=8 on the
    random-scan per-site path."""
    rng = np.random.default_rng(seed)
    fixed_seed, random_seed = _job_seeds(rng, 2)
    small = _write_network(rng, 4, 1.0, inputs / "net4.json")
    large = _write_network(rng, 8, 0.5, inputs / "net8.json")
    return [
        Job(
            "fixed",
            [Command(
                ["ising", "--net", str(inputs / "net4.json"), "--sweeps", "1000000",
                 "--dynamics", "metropolis", "--exact", "--seed", fixed_seed],
                "fixed.csv",
            )],
            lambda out_dir: oracles.check_ising(str(out_dir / "fixed.csv"), small, "fixed"),
        ),
        Job(
            "random",
            [Command(
                ["ising", "--net", str(inputs / "net8.json"), "--sweeps", "20000",
                 "--scan", "random", "--exact", "--seed", random_seed],
                "random.csv",
            )],
            lambda out_dir: oracles.check_ising(str(out_dir / "random.csv"), large, "random"),
        ),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Job]]] = {
    "experiment": experiment,
    "panel-fit": panel_fit,
    "ising": ising,
}
