"""Population-scale convergence experiment.

Simulates a population of learners crossed with an item bank, one two-state
mastery chain per (person, item) pair started unmastered, and pools the
noisy responses after a configurable number of chain steps into bins of the
advantage log(p_learn) - log(p_forget). As the step count grows the binned
proportions approach the discrimination-1 4PL curve with asymptotes p_guess
and 1 - p_slip.
"""

from __future__ import annotations

import math

import numpy as np

from ._value import Value
from .chain import mastered_after
from .errors import InsufficientData, OutOfRange
from .irt import irf_4pl
from .params import Irf4pl, _check_unit
from .rng import DEFAULT_SEED, RngKey

# Uniform draws for the learning/forgetting rates are confined to the open
# interval (EDGE, 1 - EDGE) so their logs are finite.
_EDGE = 1e-12

# Advantage axis covered by the bin grid; pairs outside are pooled into the
# extreme bins.
_BIN_SPAN = 8.0

# Bins on that axis (2 * floor(8 / bin_width) + 1) allowed: 2^20 bins hold
# 8 MiB of counts per step count, while a width near 1e-300 would ask for a
# grid beyond int64.
_MAX_BINS = 2**20

# Observations (n_people * n_items * replications) allowed: up to 2^53 every
# count is exact both as a float64 bincount weight and as an int64 total.
_MAX_OBSERVATIONS = 2**53

# Step counts allowed: the closed-form laws raise r to the count, and past
# 2^53 a count is neither exact as a float64 nor convertible when huge.
_MAX_ITERATIONS = 2**53

# Pairs per block of persons: 8192 values (64 KiB) per temporary. Full-grid
# temporaries would add about 3.5 MB to the peak RSS of a 1000 x 100 run,
# more than the simulation itself needs.
_BLOCK_PAIRS = 8192

# Stream layout: child(0) draws the population (people's learning rates, then
# items' forgetting rates); child(1, j) for j = 0..3 draws the stay, gain,
# slip and guess binomials of run_equilibrium_experiment, stay and gain in
# (checkpoint, person, item) order, slip and guess in (checkpoint, bin) order
# over the bins that hold pairs. No stream depends on the person blocks, so
# the output does not either.
_POPULATION_STREAM = 0
_COUNT_STREAM = 1
_COUNT_STREAMS = 4


def _count(name: str, value) -> int:
    """A count as a Python int, so that products of counts do not wrap. A
    numpy integer is a count; a bool or a float is not, and numpy would take
    one as a size or raise a probability to it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise OutOfRange(f"{name} must be an integer, got {value!r}")
    return int(value)


class SimConfig(Value):
    """Scale, noise and binning knobs for one experiment run."""

    n_people: int = 1000
    n_items: int = 100
    replications: int = 1000
    iteration_counts: tuple[int, ...] = (2, 5, 50)
    p_slip: float = 0.1
    p_guess: float = 0.1
    seed: int = DEFAULT_SEED
    bin_width: float = 0.25

    def __post_init__(self) -> None:
        for name in ("n_people", "n_items", "replications"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        counts = tuple(_count("each of iteration_counts", t) for t in self.iteration_counts)
        object.__setattr__(self, "iteration_counts", counts)
        if min(self.n_people, self.n_items, self.replications) < 1:
            raise OutOfRange("population, item and replication counts must be >= 1")
        if self.n_people * self.n_items * self.replications > _MAX_OBSERVATIONS:
            raise OutOfRange(
                "n_people * n_items * replications must be <= 2^53, got "
                f"{self.n_people} * {self.n_items} * {self.replications}"
            )
        if not self.iteration_counts or min(self.iteration_counts) < 1:
            raise OutOfRange("iteration_counts must be non-empty with entries >= 1")
        if max(self.iteration_counts) > _MAX_ITERATIONS:
            raise OutOfRange("iteration_counts entries must be <= 2^53")
        if not (self.bin_width > 0 and math.isfinite(self.bin_width)):
            raise OutOfRange(f"bin_width must be finite and > 0, got {self.bin_width}")
        # 2 * floor(8 / w) + 1 > 2^20 exactly when 8 / w >= 2^19, which also
        # holds where 8 / w overflows to inf (w below about 4.4e-308) and
        # has no floor.
        if _BIN_SPAN / self.bin_width >= _MAX_BINS // 2:
            raise OutOfRange(
                f"bin_width {self.bin_width} makes more than {_MAX_BINS} bins "
                f"over [-{_BIN_SPAN:g}, {_BIN_SPAN:g}]"
            )
        for name in ("p_slip", "p_guess"):
            _check_unit(name, getattr(self, name))

    @classmethod
    def desk(cls, **overrides) -> "SimConfig":
        """Reduced-scale preset that runs in seconds (for CI and smoke runs)."""
        base = dict(n_people=200, n_items=50, replications=200)
        base.update(overrides)
        return cls(**base)

    def irf(self) -> Irf4pl:
        """The equilibrium curve the binned proportions converge to."""
        return Irf4pl(a=1.0, b=0.0, c=self.p_guess, d=1.0 - self.p_slip)


class Population(Value):
    """Per-person learning rates and per-item forgetting rates, with logs."""

    p_learn: np.ndarray
    p_forget: np.ndarray
    theta: np.ndarray
    b: np.ndarray


def draw_population(config: SimConfig, key: RngKey | None = None) -> Population:
    """Draw i.i.d. uniform learning/forgetting rates and their log scores.

    Rates are uniform on (1e-12, 1 - 1e-12) (people first, then items, from
    one stream), so theta = log p_learn and b = log p_forget are finite and
    nonpositive. ``key`` defaults to the config's population stream, the
    draw ``run_equilibrium_experiment`` makes.
    """
    if key is None:
        key = RngKey(config.seed).child(_POPULATION_STREAM)
    gen = key.generator()
    span = 1.0 - 2.0 * _EDGE
    p_learn = _EDGE + span * gen.random(config.n_people)
    p_forget = _EDGE + span * gen.random(config.n_items)
    return Population(
        p_learn=p_learn,
        p_forget=p_forget,
        theta=np.log(p_learn),
        b=np.log(p_forget),
    )


class BinnedCurve(Value):
    """Pooled correct proportions by advantage bin for one step count.

    Bins are centered on multiples of the bin width, ordered ascending;
    only bins that received observations are kept. ``expected`` is each
    bin's exact expected proportion at this step count, over the same pairs.
    """

    iterations: int
    bin_centers: np.ndarray
    prop_correct: np.ndarray
    expected: np.ndarray
    n_obs: np.ndarray

    def rows(self) -> list[tuple[float, int, float, int]]:
        return [
            (float(c), self.iterations, float(p), int(n))
            for c, p, n in zip(self.bin_centers, self.prop_correct, self.n_obs)
        ]


def _pair_bins(pop: Population, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Bin index of every (person, item) advantage, and the bin centers."""
    k_max = int(math.floor(_BIN_SPAN / width))
    advantage = pop.theta[:, None] - pop.b[None, :]
    idx = np.clip(np.rint(advantage / width).astype(np.int64), -k_max, k_max) + k_max
    centers = (np.arange(2 * k_max + 1) - k_max) * width
    return idx, centers


def _person_blocks(n_people: int, n_items: int) -> list[slice]:
    """Contiguous person ranges holding about ``_BLOCK_PAIRS`` pairs each."""
    rows = max(1, _BLOCK_PAIRS // n_items)
    return [slice(start, start + rows) for start in range(0, n_people, rows)]


def work_counts(config: SimConfig, curves: dict[int, BinnedCurve]) -> dict[str, int]:
    """Work the run of ``config`` that returned ``curves`` did under the
    stream layout above: (person, item) pairs, keyed generators created,
    and binomial draws (two per pair and checkpoint, plus two per occupied
    bin and checkpoint)."""
    pairs = config.n_people * config.n_items
    return {
        "pairs": pairs,
        "keyed_streams": 1 + _COUNT_STREAMS,
        "binomial_draws": sum(2 * (pairs + curve.n_obs.size) for curve in curves.values()),
    }


def run_equilibrium_experiment(config: SimConfig) -> dict[int, BinnedCurve]:
    """Run the full population x item bank simulation; one curve per count.

    The population is the config's own draw (``draw_population(config)``).
    The R replications of a pair are i.i.d. chains started unmastered, and
    only their pooled counts are kept, so each pair is sampled at count
    level. Its mastered count jumps from one checkpoint to the next, a gap
    of d steps, as M_k = Bin(M_{k-1}, stay) + Bin(R - M_{k-1}, gain), with
    stay and gain the closed-form d-step mastery laws from the mastered and
    unmastered states. That is the joint law of the replicated chains at the
    checkpoints. Given the mastered counts, a pair's correct count would be
    Bin(M_k, 1 - slip) + Bin(R - M_k, guess), drawn afresh per checkpoint
    and independent across pairs. Only bin totals are written, and
    binomials sharing one p add up to one binomial, so a bin of P pairs
    with mastered total M draws its correct count as C_k = Bin(M, 1 - slip)
    + Bin(R * P - M, guess): the same law, at two draws per pair and
    checkpoint plus two per occupied bin and checkpoint, whatever R is. The
    mastered counts are held for the whole grid; other temporaries span one
    person block.

    The same pass sums each bin's exact expectation. A pair started
    unmastered is mastered after t steps with probability
    lambda1 * (1 - r^t), with lambda1 = l / (l + f) and r = 1 - l - f, so it
    answers correctly with probability g + (1 - s - g) * lambda1 * (1 - r^t);
    every pair of a bin is replicated equally often, so the bin's expected
    proportion is the mean of that probability over its pairs. It is written
    out here rather than taken from the stay and gain laws, so that it
    checks the sampler instead of repeating it.
    """
    pop = draw_population(config)
    checkpoints = sorted(set(config.iteration_counts))
    pair_bin, centers = _pair_bins(pop, config.bin_width)
    # Relabel each pair to its bin's rank among the bins that hold pairs, so
    # the per-block sums span the occupied bins, not the whole grid.
    pairs = np.bincount(pair_bin.ravel(), minlength=centers.size)
    occupied = pairs > 0
    pair_bin = (np.cumsum(occupied) - 1)[pair_bin]
    centers, pairs = centers[occupied], pairs[occupied]
    n_bins = centers.size
    reps = config.replications
    spread = 1.0 - config.p_slip - config.p_guess
    stay_gen, gain_gen, slip_gen, guess_gen = (
        RngKey(config.seed, (_COUNT_STREAM, j)).generator() for j in range(_COUNT_STREAMS)
    )
    forget = pop.p_forget[None, :]
    mastered = np.zeros(pair_bin.shape, dtype=np.int64)
    bin_mastered = np.zeros((len(checkpoints), n_bins), dtype=np.int64)
    expected = np.zeros((len(checkpoints), n_bins))
    blocks = _person_blocks(*pair_bin.shape)
    gaps = np.diff(checkpoints, prepend=0).tolist()
    # Mastered, then unmastered: the stay and gain laws as one broadcast.
    start = np.array([1, 0])[:, None, None]
    for ci, (t, gap) in enumerate(zip(checkpoints, gaps)):
        for rows in blocks:
            learn = pop.p_learn[rows, None]
            bins = pair_bin[rows].ravel()
            # The closed form can round just past 0 or 1 when r < 0.
            law = mastered_after(learn, forget, start, gap)
            stay, gain = np.clip(law, 0.0, 1.0, out=law)
            m = mastered[rows]
            m = stay_gen.binomial(m, stay) + gain_gen.binomial(reps - m, gain)
            mastered[rows] = m
            bin_mastered[ci] += np.bincount(
                bins, weights=m.ravel(), minlength=n_bins
            ).astype(np.int64)
            lam1 = learn / (learn + forget)
            r = 1.0 - learn - forget
            p_pair = config.p_guess + spread * lam1 * (1.0 - r**t)
            expected[ci] += np.bincount(bins, weights=p_pair.ravel(), minlength=n_bins)
    observed = reps * pairs
    correct = slip_gen.binomial(bin_mastered, 1.0 - config.p_slip) + guess_gen.binomial(
        observed - bin_mastered, config.p_guess
    )

    return {
        t: BinnedCurve(
            iterations=t,
            bin_centers=centers,
            prop_correct=correct[ci] / observed,
            expected=expected[ci] / pairs,
            n_obs=observed,
        )
        for ci, t in enumerate(checkpoints)
    }


def compare_to_irf(
    curve: BinnedCurve, item: Irf4pl, min_count: int = 1
) -> tuple[float, float]:
    """(max absolute deviation, count-weighted RMSE) against a 4PL curve,
    over bins holding at least min_count observations."""
    mask = curve.n_obs >= min_count
    if not np.any(mask):
        raise InsufficientData(
            f"no bins with at least {min_count} observations"
        )
    expected = irf_4pl(curve.bin_centers[mask], item)
    dev = np.abs(curve.prop_correct[mask] - expected)
    weights = curve.n_obs[mask]
    max_abs = float(dev.max())
    rmse = float(np.sqrt(np.sum(weights * dev**2) / np.sum(weights)))
    return max_abs, rmse


def summarize_curves(curves: dict[int, BinnedCurve], item: Irf4pl, min_count: int) -> dict:
    """Deviation summary per iteration count, as written beside the CSV.

    Deviations are taken over bins holding at least min_count observations:
    from the equilibrium curve, and from each curve's exact expectation at
    its step count (``BinnedCurve.expected``).
    """
    summary: dict = {"min_count": min_count, "max_abs_dev": {}, "weighted_rmse": {}}
    summary["expected_max_abs_dev"] = {}
    for t in sorted(curves):
        curve = curves[t]
        max_abs, rmse = compare_to_irf(curve, item, min_count)
        summary["max_abs_dev"][str(t)] = max_abs
        summary["weighted_rmse"][str(t)] = rmse
        mask = curve.n_obs >= min_count
        dev = np.abs(curve.prop_correct[mask] - curve.expected[mask])
        summary["expected_max_abs_dev"][str(t)] = float(dev.max())
    return summary
