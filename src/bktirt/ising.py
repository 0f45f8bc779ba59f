"""Interacting mastery network: coupled binary nodes with noisy emissions.

Latent node states live in {0, 1} (so an isolated node's stationary marginal
is logistic in its field), couple through a symmetric interaction matrix, and
evolve by single-site Glauber or Metropolis updates whose stationary law is
the Boltzmann distribution of the energy below. Each node emits a noisy
response once per sweep through its own guess/slip pair. Exact enumeration of
the Boltzmann law is provided for small networks as the convergence oracle.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .chain import Trajectory
from .errors import InsufficientData, OutOfRange, TooLarge
from .irt import logistic
from .params import read_json
from .rng import RngKey

_EXACT_MAX_NODES = 20
_TABLE_MAX_NODES = 12
_INDEX_MAX_NODES = 63
# Most (code, state) entries one group table of the sweep-table walk holds.
_GROUP_ENTRIES = 1 << 18
# The walk's cost model (see _plan), in ns: its set-up and each table entry
# built, against what it saves per sweep. Per sweep the per-site loop spends
# a fixed amount plus an amount per site update beyond the walk's numpy work
# per draw, and the walk spends one list lookup per group. Measured on
# all-pairs and chain networks of n = 2 to 12, both scans and dynamics, on a
# two-core VM: builds take 12-40 ns per entry, and one 16,384-sweep chunk of
# _Walk.sweep saves 270-680 ns per sweep over _sweep_sites at n = 2, 290-830
# at n = 3 and 330-1,580 from n = 4 on. The saving predicted below is under
# each of them (closest: all-pairs n = 6 Metropolis on fixed scan, 354-380
# against 330). Whole simulate_field runs, walk against loop, broke even at
# 170-330 sweeps at n = 2 and 280-450 at n = 3 on fixed scan, where _plan
# switches at 387-418 and 350-508, so it sends no run to the walk before
# its build pays back.
_WALK_SETUP_NS = 80_000
_ENTRY_NS = 30
_LOOP_SWEEP_NS = 150
_LOOP_SITE_NS = 50
_LOOKUP_NS = 40
# Buckets per node in the walk's rank tables (see _Walk): a power of two.
_BUCKETS = 1 << 12
# Sweeps simulated per chunk, and state indices counted per bincount.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class IsingNetwork:
    """Symmetric couplings, per-node external fields, per-node emission noise."""

    couplings: np.ndarray
    fields: np.ndarray
    p_guess: np.ndarray
    p_slip: np.ndarray

    def __post_init__(self) -> None:
        couplings = np.asarray(self.couplings, dtype=float)
        fields = np.asarray(self.fields, dtype=float)
        p_guess = np.asarray(self.p_guess, dtype=float)
        p_slip = np.asarray(self.p_slip, dtype=float)
        n = fields.size
        if n < 1:
            raise OutOfRange(f"a network needs at least 1 node, got {n}")
        if couplings.shape != (n, n):
            raise OutOfRange(
                f"couplings must be ({n}, {n}) to match {n} fields, "
                f"got {couplings.shape}"
            )
        if np.any(np.diag(couplings) != 0.0):
            raise OutOfRange("coupling diagonal must be exactly 0")
        if np.max(np.abs(couplings - couplings.T), initial=0.0) > 1e-12:
            raise OutOfRange("couplings must be symmetric within 1e-12")
        if p_guess.shape != (n,) or p_slip.shape != (n,):
            raise OutOfRange("one guess and one slip probability per node required")
        for name, arr in (("couplings", couplings), ("fields", fields)):
            if not np.all(np.isfinite(arr)):
                raise OutOfRange(f"{name} entries must be finite")
        # Twice the sum of every |field| and |coupling| bounds each energy,
        # local field and energy difference, so when it is finite none of
        # them overflows.
        with np.errstate(over="ignore"):
            span = 2.0 * (np.abs(fields).sum() + np.abs(couplings).sum())
        if not np.isfinite(span):
            raise OutOfRange(
                "fields and couplings too large: twice the sum of their "
                "absolute values overflows a float"
            )
        for name, arr in (("p_guess", p_guess), ("p_slip", p_slip)):
            bad = np.flatnonzero((arr < 0) | (arr > 1) | np.isnan(arr))
            if bad.size:
                raise OutOfRange(f"{name}[{bad[0]}] must lie in [0, 1], got {arr[bad[0]]}")
        names = ("couplings", "fields", "p_guess", "p_slip")
        for name, arr in zip(names, (couplings, fields, p_guess, p_slip)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return self.fields.size

    @classmethod
    def from_dict(cls, raw: dict) -> "IsingNetwork":
        """Network from its JSON form: an integer "n" >= 1, then optional
        "couplings" ([i, j, sigma] entries; default none), "fields" (n
        numbers; default 0) and "emissions" (n [guess, slip] pairs; default
        noiseless). A malformed entry raises OutOfRange naming its key and
        index, and so does a key outside these four or a coupling pair
        listed twice (in either order). A network file is read
        only to list its 2^n states, so "n" above 20 raises TooLarge before
        anything is allocated."""
        n = raw.get("n") if isinstance(raw, dict) else None
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise OutOfRange(
                f'network needs an integer node count "n" >= 1, got {n!r}'
            )
        require_enumerable(n)
        unknown = [key for key in raw if key not in ("n", "couplings", "fields", "emissions")]
        if unknown:
            raise OutOfRange(f"unknown network keys: {unknown}")
        couplings = np.zeros((n, n))
        listed: dict[tuple[int, int], int] = {}
        for idx, entry in enumerate(_json_list(raw, "couplings", [])):
            if not isinstance(entry, list) or len(entry) != 3:
                raise OutOfRange(f"couplings[{idx}] must be [i, j, sigma], got {entry!r}")
            i, j, sigma = entry
            if not all(type(k) is int and 0 <= k < n for k in (i, j)) or i == j:
                raise OutOfRange(
                    f"couplings[{idx}] ({i!r}, {j!r}) must join two distinct "
                    f"nodes in [0, {n})"
                )
            sigma = _number(sigma, f"couplings[{idx}][2]")
            first = listed.setdefault((min(i, j), max(i, j)), idx)
            if first != idx:
                raise OutOfRange(
                    f"couplings[{idx}] ({i}, {j}) repeats the pair of couplings[{first}]"
                )
            couplings[i, j] = couplings[j, i] = sigma
        fields = [
            _number(h, f"fields[{idx}]")
            for idx, h in enumerate(_json_list(raw, "fields", [0.0] * n))
        ]
        emissions = []
        for idx, entry in enumerate(_json_list(raw, "emissions", [[0.0, 0.0]] * n)):
            if not isinstance(entry, list) or len(entry) != 2:
                raise OutOfRange(f"emissions[{idx}] must be [guess, slip], got {entry!r}")
            emissions.append([_number(x, f"emissions[{idx}][{k}]") for k, x in enumerate(entry)])
        for key, values in (("fields", fields), ("emissions", emissions)):
            if len(values) != n:
                raise OutOfRange(f'"{key}" must hold {n} entries, one per node, got {len(values)}')
        p_guess, p_slip = np.array(emissions).reshape(n, 2).T
        return cls(couplings=couplings, fields=np.array(fields), p_guess=p_guess, p_slip=p_slip)

    @classmethod
    def from_json_file(cls, path: str) -> "IsingNetwork":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(read_json(handle.read()))


def _json_list(raw: dict, key: str, default: list) -> list:
    """raw[key], or the default when absent, which must be a list."""
    value = raw.get(key, default)
    if not isinstance(value, list):
        raise OutOfRange(f'"{key}" must be a list, got {type(value).__name__}')
    return value


def _number(value, where: str) -> float:
    """A finite JSON number (a bool is not one), else OutOfRange naming
    ``where``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            if math.isfinite(number := float(value)):
                return number
    raise OutOfRange(f"{where} must be a finite number, got {value!r}")


def require_enumerable(n_nodes: int) -> None:
    """Raise TooLarge past 20 nodes, where listing all 2^n states (the exact
    law, the state frequencies) stops being practical."""
    if n_nodes > _EXACT_MAX_NODES:
        raise TooLarge(
            f"state enumeration capped at {_EXACT_MAX_NODES} nodes, got {n_nodes}"
        )


def require_sweeps_after_burn_in(burn_in: int, sweeps: int) -> None:
    """Raise InsufficientData when a burn-in leaves no sweep to count."""
    if burn_in >= sweeps:
        raise InsufficientData(f"burn-in of {burn_in} sweeps leaves none of {sweeps} to count")


def energy(net: IsingNetwork, z) -> float:
    """E(z) = -(sum_{i<j} sigma_ij z_i z_j + sum_i h_i z_i)."""
    z = np.asarray(z, dtype=float)
    return float(-(0.5 * z @ net.couplings @ z + net.fields @ z))


def _state_bits(n: int) -> np.ndarray:
    # Row s holds the bits of state index s, node j = bit j.
    return (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1


def boltzmann_exact(net: IsingNetwork) -> np.ndarray:
    """Normalized exp(-E) over all 2^n states, indexed by the bit pattern of z.

    Full enumeration; refuses networks beyond 20 nodes.
    """
    n = net.n_nodes
    require_enumerable(n)
    states = _state_bits(n).astype(float)
    energies = -(
        0.5 * np.einsum("si,ij,sj->s", states, net.couplings, states)
        + states @ net.fields
    )
    weights = np.exp(-(energies - energies.min()))
    return weights / weights.sum()


def _state_index(net: IsingNetwork, z, node) -> int:
    """State z packed as an index (node k = bit k), once z is n entries of
    0 or 1 and node an int in [0, n); OutOfRange otherwise."""
    n = net.n_nodes
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)) or not 0 <= node < n:
        raise OutOfRange(f"node must be an int in [0, {n}), got {node!r}")
    with contextlib.suppress(TypeError, ValueError):
        bits = np.asarray(z)
        if bits.shape == (n,) and bits.dtype.kind in "biuf" and np.all((bits == 0) | (bits == 1)):
            return sum(1 << k for k in np.flatnonzero(bits).tolist())
    raise OutOfRange(f"z must be {n} entries of 0 or 1, got {z!r}")


def _threshold(local, own, glauber: bool):
    """A node's update threshold from its local field and own bit, alike on
    arrays and on one float: logistic(local) under Glauber, min(1, exp(-dE))
    = exp(min(s, 0)) under Metropolis, with dE = -local from 0 and local
    from 1, so s = -dE is the log-odds of the flipped state."""
    if glauber:
        return logistic(local)
    return np.exp(np.minimum(local * (1 - 2 * own), 0.0))


class _LookupRow:
    """One node's thresholds computed on lookup, for networks too large to
    tabulate and for the step functions: [idx] is _threshold of field(idx)."""

    def __init__(self, net: IsingNetwork, node: int, glauber: bool) -> None:
        self.h, self.row = float(net.fields[node]), net.couplings[node].tolist()
        self.node, self.glauber = node, glauber

    def field(self, idx: int) -> float:
        """Local field in state idx: h plus row[k] over its set bits k, ascending."""
        local, row = self.h, self.row
        while idx:
            low = idx & -idx
            local += row[low.bit_length() - 1]
            idx ^= low
        return local

    def __getitem__(self, idx: int) -> float:
        return float(_threshold(self.field(idx), idx >> self.node & 1, self.glauber))


def conditional_prob(net: IsingNetwork, z, node: int) -> float:
    """P(z_node = 1 | all other nodes) = logistic(h_node + sigma_node . z)."""
    idx = _state_index(net, z, node)
    return _LookupRow(net, node, True)[idx]


def glauber_step(net: IsingNetwork, z, node: int, gen: np.random.Generator) -> np.ndarray:
    """Resample one node from its exact conditional; consumes one uniform."""
    threshold = conditional_prob(net, z, node)
    z_new = np.array(z, dtype=np.uint8)
    z_new[node] = gen.random() < threshold
    return z_new


def flip_energy_delta(net: IsingNetwork, z, node: int) -> float:
    """Energy change from flipping one node: -local from 0, local from 1."""
    idx = _state_index(net, z, node)
    local = _LookupRow(net, node, False).field(idx)
    return local if idx >> node & 1 else -local


def metropolis_step(net: IsingNetwork, z, node: int, gen: np.random.Generator) -> np.ndarray:
    """Propose flipping one node, accept with min(1, exp(-dE)); consumes one uniform either way."""
    idx = _state_index(net, z, node)
    threshold = _LookupRow(net, node, False)[idx]
    z_new = np.array(z, dtype=np.uint8)
    z_new[node] ^= gen.random() < threshold
    return z_new


def _thresholds(net: IsingNetwork, dynamics: str) -> list:
    """Per node, the threshold by packed state that a draw must fall below
    to set (Glauber) or flip (Metropolis) the node: up to 12 nodes the 2^n
    list, beyond a _LookupRow. Both are _threshold of the same float
    additions, so a table entry equals its lookup exactly."""
    n, glauber = net.n_nodes, dynamics == "glauber"
    if n > _TABLE_MAX_NODES:
        return [_LookupRow(net, j, glauber) for j in range(n)]
    # Every node's field (row) in every state (column) by n doublings, the
    # k-th appending the states with bit k set: _LookupRow.field's sums.
    local = net.fields[:, None]
    for k in range(n):
        local = np.concatenate([local, local + net.couplings[:, k : k + 1]], axis=1)
    return _threshold(local, _state_bits(n).T, glauber).tolist()


def uniforms_per_sweep(n_nodes: int, scan: str) -> int:
    """Uniforms one sweep consumes: n order keys under random scan, then n
    update draws and n emission draws."""
    return (3 if scan == "random" else 2) * n_nodes


def _code_counts(levels: list, scan: str) -> list[int]:
    """Per position of a sweep, how many codes its draw can take: the
    len(s_j) + 1 ranks of node j under fixed scan; under random scan the
    sum over nodes, since the code also names the node visited."""
    counts = [s.size + 1 for s, _ in levels]
    return [sum(counts)] * len(counts) if scan == "random" else counts


def _groups(counts: list[int], n_states: int) -> list[int] | None:
    """One sweep's positions split into runs of consecutive positions, each
    as long as the product of its code counts times n_states stays within
    _GROUP_ENTRIES: the length of every run, or None when one position
    alone exceeds it."""
    groups: list[int] = []
    entries = _GROUP_ENTRIES + 1
    for count in counts:
        if count * n_states > _GROUP_ENTRIES:
            return None
        if entries * count <= _GROUP_ENTRIES:
            groups[-1] += 1
            entries *= count
        else:
            groups.append(1)
            entries = count * n_states
    return groups


def _plan(counts: list[int], n_states: int, sweeps: int) -> list[int] | None:
    """The groups of the sweep-table walk where it pays, else None (the
    per-site loop). It pays when positions merge, so that a sweep takes
    fewer lookups than it has sites, and when what it saves per sweep over
    the loop, over all sweeps, outweighs building the tables."""
    groups = _groups(counts, n_states)
    if groups is None or len(groups) == len(counts):
        return None
    entries, start = 0, 0
    for size in groups:
        entries += math.prod(counts[start : start + size]) * n_states
        start += size
    saved = sweeps * (_LOOP_SWEEP_NS + len(counts) * _LOOP_SITE_NS - len(groups) * _LOOKUP_NS)
    return groups if saved > _WALK_SETUP_NS + entries * _ENTRY_NS else None


def _route(tables: list, sweeps: int, scan: str) -> tuple[list, list[int] | None]:
    """Rank levels of the threshold tables and the walk's groups, or
    ([], None) for the per-site loop. Networks beyond _TABLE_MAX_NODES have
    no tables and always take the loop."""
    if len(tables) > _TABLE_MAX_NODES:
        return [], None
    levels = [np.unique(table, return_inverse=True) for table in tables]
    return levels, _plan(_code_counts(levels, scan), 2 ** len(tables), sweeps)


class _Walk:
    """Sweep tables: whole groups of site updates as one list lookup each.

    A draw u updates node j from state x exactly when u < t_j[x]. With s_j
    the sorted distinct values of t_j and s_j[pos_j[x]] == t_j[x], that
    holds exactly when the rank r = searchsorted(s_j, u, "right") is at
    most pos_j[x]: the same float comparisons as the per-site loop, so the
    output is bit-identical. F_j[r, x] is the state after that update, and
    composing the maps of a group's positions gives its table G[code, x],
    where the code is the mixed-radix number of the positions' ranks, the
    first position lowest. Under random scan a position's code is node j's
    offset plus its rank, so one map serves every position.

    Ranks come from one bucket table per node. A draw u falls in bucket
    b = floor(u * M), with M = _BUCKETS a power of two, so u * M and b are
    exact. Where no threshold of s_j lies in [b/M, (b+1)/M), every u in
    bucket b has the rank searchsorted(s_j, b/M, "left"), and the table
    holds that rank's code: times the position's weight under fixed scan,
    plus the node's offset under random scan. A bucket holding a threshold,
    one exactly at b/M included, holds -1 instead, and the few draws that
    land in one get their exact rank, searchsorted(s_j, u, "right"), from
    one search over all nodes' thresholds as a fix-up.
    """

    def __init__(self, levels: list, groups: list[int], scan: str, flip: bool) -> None:
        n = len(levels)
        states = np.arange(2**n)
        maps = []
        for j, (s, pos) in enumerate(levels):
            hit = np.arange(s.size + 1)[:, None] <= pos
            bit = 1 << j
            maps.append(
                np.where(hit, states ^ bit, states)
                if flip
                else np.where(hit, states | bit, states & ~bit)
            )
        if scan == "random":
            maps = [np.concatenate(maps)] * n
        self.scan, self.groups = scan, len(groups)
        # Each position's weight in its group's code, the group's rows of
        # positions, and its first row in the stacked tables.
        weights = np.empty((n, 1), dtype=np.int64)
        self.spans: list[slice] = []
        self.offsets = np.empty(len(groups), dtype=np.int64)
        self.rows: list = []
        # Every row holds the same 2^n int objects, not one object per entry.
        shared = states.astype(object)
        position = 0
        for g, size in enumerate(groups):
            self.spans.append(slice(position, position + size))
            self.offsets[g] = len(self.rows)
            table = states[None, :]
            for step in maps[position : position + size]:
                weights[position] = table.shape[0]
                table = step[:, table].reshape(-1, states.size)
                position += 1
            self.rows += shared[table].tolist()
        # Node j's rank i is entry firsts[j] + i of the codes: the node's
        # offset plus its rank, a position's code under random scan (sweep
        # weights it by position once the nodes are placed), and under
        # fixed scan the rank times the position's weight.
        sizes = np.array([s.size + 1 for s, _ in levels])
        firsts = sizes.cumsum() - sizes
        node = np.repeat(np.arange(n), sizes)
        self.codes = np.arange(node.size)
        if scan == "fixed":
            self.codes = (self.codes - firsts[node]) * weights[node, 0]
            self.weights = None
        else:
            self.weights = weights
        # Bucket b of node j is entry j * (M + 1) + b, and threshold t lies
        # in bucket floor(t * M). Rank i fills the buckets after the one
        # holding s_j[i - 1] up to the one holding s_j[i]. A bound of 1.0
        # closes each node's thresholds, so its last rank runs to bucket M,
        # which holds u = 1.0 alone, a draw the generator never makes.
        # Every bucket that ends a rank is flagged.
        stride = _BUCKETS + 1
        one = np.ones(1)
        bounds = np.concatenate([part for s, _ in levels for part in (s, one)])
        ends = (bounds * _BUCKETS).astype(np.int64) + node * stride
        widths = ends.copy()
        widths[1:] -= ends[:-1]
        widths[0] += 1
        self.buckets = np.repeat(self.codes, widths)
        self.buckets[ends] = -1
        # Complex numbers sort by real part, then imaginary part. So one
        # search over the (bucket entry, threshold) keys ranks a flagged
        # draw among its own node's thresholds, as searchsorted(s_j, u,
        # "right") does, plus the entries of the nodes before it: the
        # index of its code. Each node's closing key sorts after every draw
        # in its last bucket.
        self.keys = ends + 1j * bounds
        self.keys.imag[firsts + sizes - 1] = np.inf
        self.starts = np.arange(0, n * stride, stride)[:, None]

    def sweep(self, draws: np.ndarray, idx: int) -> list[int]:
        """The state after each sweep in a chunk of draws, from state idx."""
        n, chunk = self.starts.shape[0], draws.shape[0]
        stride = _BUCKETS + 1
        picks = draws[:, :n] if self.scan == "fixed" else draws[:, n : 2 * n]
        # One row per position, so each step below runs over contiguous
        # rows. Casting u * M to an integer truncates it, which for u >= 0
        # is the floor.
        cells = np.empty((n, chunk), dtype=np.int64)
        np.multiply(picks.T, _BUCKETS, out=cells, casting="unsafe")
        if self.scan == "fixed":
            cells += self.starts
        else:
            order = np.argsort(draws[:, :n], axis=1, kind="stable")
            order *= stride
            cells += order.T
        values = self.buckets[cells]
        flagged = np.flatnonzero(values < 0)
        if flagged.size:
            query = cells.ravel()[flagged] + 1j * picks[flagged % chunk, flagged // chunk]
            values.ravel()[flagged] = self.codes[np.searchsorted(self.keys, query, "right")]
        if self.weights is not None:
            values *= self.weights
        codes = np.empty((chunk, self.groups), dtype=np.int64)
        for g, span in enumerate(self.spans):
            np.sum(values[span], axis=0, out=codes[:, g])
        codes += self.offsets
        path = _walk(self.rows, codes.ravel().tolist(), idx)
        return path if self.groups == 1 else path[self.groups - 1 :: self.groups]


def _walk(rows: list, codes: list, idx: int) -> list[int]:
    # Its own function: the comprehension shares idx with its scope, which
    # would slow every other use of idx there.
    return [idx := rows[code][idx] for code in codes]


def _sweep_sites(tables: list, draws: np.ndarray, scan: str, flip: bool, idx: int) -> list[int]:
    """The state after each sweep in a chunk of draws, one threshold lookup
    and compare per site update."""
    n = len(tables)
    bit = [1 << j for j in range(n)]
    path = []
    # Fixed scan keeps its own indexed loop: the zip form below ran
    # 10-40% slower per update when given range(n) as the order.
    if scan == "fixed":
        for row in _rows(draws[:, :n]):
            for j in range(n):
                threshold = tables[j][idx]
                if flip:
                    if row[j] < threshold:
                        idx ^= bit[j]
                elif row[j] < threshold:
                    idx |= bit[j]
                else:
                    idx &= ~bit[j]
            path.append(idx)
    else:
        orders = _rows(np.argsort(draws[:, :n], axis=1, kind="stable"))
        for order, row in zip(orders, _rows(draws[:, n : 2 * n])):
            for j, u in zip(order, row):
                threshold = tables[j][idx]
                if flip:
                    if u < threshold:
                        idx ^= bit[j]
                elif u < threshold:
                    idx |= bit[j]
                else:
                    idx &= ~bit[j]
            path.append(idx)
    return path


def _rows(block: np.ndarray) -> zip:
    """The rows of a 2-D array as tuples of Python numbers, cut one at a
    time from one flat list: a nested list would hold a list object per
    row, about twice the memory and slower to loop over."""
    return zip(*[iter(block.ravel().tolist())] * block.shape[1])


def simulate_field(
    net: IsingNetwork, sweeps: int, key: RngKey, dynamics: str = "glauber", scan: str = "fixed"
) -> Trajectory:
    """Run single-site dynamics from the all-unmastered state.

    One sweep updates every node once and then emits one response per node.
    Fixed scan visits the nodes in ascending order and draws 2n uniforms per
    sweep: n update draws, then n emission draws. Random scan draws 3n: n
    order keys, whose stable argsort is the sweep's visiting order, then n
    update draws taken in that order, then n emission draws. The state is
    packed into one int64 index, so networks beyond 63 nodes raise TooLarge.

    Networks of at most 12 nodes get each node's update thresholds as a 2^n
    table. Where it pays (see _plan), a draw is then reduced to its rank
    among its node's distinct thresholds, and consecutive site updates are
    tabulated as groups (see _Walk), so a sweep costs one list lookup per
    group. Otherwise a per-site loop makes one threshold lookup and compare
    per site update; beyond 12 nodes each lookup computes its threshold.
    Tables, lookups and step functions take _threshold of the same float
    additions (see _thresholds), and the walk's ranks are exact, so every
    path and the step functions agree by construction on the same stream.

    Each chunk's latent bits and emissions are written one byte of the state
    index at a time (see _byte_tables): one np.take of the byte's node bits
    into latent, and one of its emission thresholds, which the emission
    draws are compared with straight into emitted. The indices are kept as
    the trajectory's states, in the narrowest type for 2^n (_index_dtype).
    Its work counts the uniforms drawn and the lookups per sweep of the path
    taken: the walk's groups, or n on the per-site loop.
    """
    if sweeps < 1:
        raise OutOfRange(f"sweeps must be >= 1, got {sweeps}")
    if dynamics not in ("glauber", "metropolis"):
        raise OutOfRange(f"dynamics must be glauber or metropolis, got {dynamics!r}")
    if scan not in ("fixed", "random"):
        raise OutOfRange(f"scan must be fixed or random, got {scan!r}")
    n = net.n_nodes
    if n > _INDEX_MAX_NODES:
        raise TooLarge(f"the packed state index holds {_INDEX_MAX_NODES} nodes, got {n}")
    width = uniforms_per_sweep(n, scan)
    gen = key.generator()
    latent = np.empty((sweeps, n), dtype=np.uint8)
    emitted = np.empty((sweeps, n), dtype=np.uint8)
    states = np.empty(sweeps, dtype=_index_dtype(n))
    tables = _thresholds(net, dynamics)
    flip = dynamics == "metropolis"
    levels, groups = _route(tables, sweeps, scan)
    walk = None if groups is None else _Walk(levels, groups, scan, flip)
    byte_tables = _byte_tables(net)
    idx = done = 0
    while done < sweeps:
        chunk = min(sweeps - done, _CHUNK)
        draws = gen.random((chunk, width))
        path = walk.sweep(draws, idx) if walk else _sweep_sites(tables, draws, scan, flip, idx)
        idx = path[-1]
        indices = np.fromiter(path, np.int64, count=chunk)
        rows = slice(done, done + chunk)
        states[rows] = indices
        for cols, bits, thresholds in byte_tables:
            byte = indices >> cols.start
            byte &= 255
            # mode="clip" never clips a byte; it lets take write straight
            # into out, where the default mode fills a buffered copy first.
            np.take(bits, byte, axis=0, out=latent[rows, cols], mode="clip")
            # Slice draws here: a view kept past the loop would hold this
            # chunk's draws alive while the next chunk's are drawn.
            np.less(
                draws[:, width - n + cols.start : width - n + cols.stop],
                np.take(thresholds, byte, axis=0, mode="clip"),
                out=emitted[rows, cols].view(np.bool_),
            )
        done += chunk
    work = {
        "uniforms_drawn": sweeps * width,
        "lookups_per_sweep": n if groups is None else len(groups),
    }
    return Trajectory(latent=latent, emitted=emitted, key=key, states=states, work=work)


def _index_dtype(n_nodes: int) -> type:
    """The narrowest unsigned integer type that holds 2^n state indices, or
    int64 from 33 nodes up to the 63-node cap."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_nodes <= 8 * np.dtype(dtype).itemsize:
            return dtype
    return np.int64


def _byte_tables(net: IsingNetwork) -> list[tuple[slice, np.ndarray, np.ndarray]]:
    """Per byte of the packed state index, its w = min(8, n - 8k) nodes as a
    slice (byte k holds nodes 8k to 8k + w - 1), then two tables with one row
    per byte value: its w node bits (uint8), and the emission threshold each
    bit gives its node. A response is correct when its draw falls below
    1 - slip (mastered) or below guess (unmastered)."""
    n = net.n_nodes
    out = []
    for lo in range(0, n, 8):
        nodes = slice(lo, min(lo + 8, n))
        bits = (np.arange(256)[:, None] >> np.arange(nodes.stop - lo)) & 1
        thresholds = np.where(bits == 1, 1.0 - net.p_slip[nodes], net.p_guess[nodes])
        out.append((nodes, bits.astype(np.uint8), thresholds))
    return out


def state_indices(latent: np.ndarray) -> np.ndarray:
    """Latent state per sweep packed as an integer (node j = bit j), built
    one column at a time through one int64 buffer, so no (sweeps, n) int64
    copy is made and the allocator is not asked for a new column each time."""
    indices = np.zeros(latent.shape[0], dtype=np.int64)
    column = np.empty_like(indices)
    for j in range(latent.shape[1]):
        np.copyto(column, latent[:, j])
        column <<= j
        indices |= column
    return indices


def empirical_state_frequencies(
    trace: Trajectory, burn_in: int = 0, thin: int = 1
) -> np.ndarray:
    """Relative visit frequencies over all 2^n states, after burn-in/thinning.

    Counts the trajectory's states, or for a trajectory without them
    (built by hand) the indices state_indices packs from its latent bits.
    Raises OutOfRange for a negative burn-in or a thinning step below 1,
    InsufficientData when the burn-in leaves no sweep to count, and TooLarge
    beyond 20 nodes.
    """
    if burn_in < 0:
        raise OutOfRange(f"burn_in must be >= 0, got {burn_in}")
    if thin < 1:
        raise OutOfRange(f"thin must be >= 1, got {thin}")
    require_sweeps_after_burn_in(burn_in, len(trace))
    n = trace.latent.shape[1]
    require_enumerable(n)
    packed = trace.states is not None
    counted = (trace.states if packed else trace.latent)[burn_in::thin]
    counts = np.zeros(2**n, dtype=np.int64)
    # bincount copies its input to intp, so it gets one block at a time.
    for lo in range(0, len(counted), _CHUNK):
        block = counted[lo : lo + _CHUNK]
        counts += np.bincount(block if packed else state_indices(block), minlength=2**n)
    return counts / counts.sum()
