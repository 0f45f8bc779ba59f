"""Interacting mastery network: coupled binary nodes with noisy emissions.

Latent node states live in {0, 1} (so an isolated node's stationary marginal
is logistic in its field), couple through a symmetric interaction matrix, and
evolve by single-site Glauber or Metropolis updates whose stationary law is
the Boltzmann distribution of the energy
E(z) = -(sum_{i<j} sigma_ij z_i z_j + sum_i h_i z_i). Each node emits a noisy
response once per sweep through its own guess/slip pair. Exact enumeration of
the Boltzmann law is provided for small networks as the convergence oracle.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from ._value import Value
from .chain import Trajectory, require_sweeps_after_burn_in
from .errors import OutOfRange, TooLarge
from .irt import logistic
from .params import finite_number, read_json
from .rng import RngKey

_EXACT_MAX_NODES = 20
_TABLE_MAX_NODES = 12
_INDEX_MAX_NODES = 63
# Sweeps simulated per chunk, state indices counted per bincount, and
# states whose energies boltzmann_exact computes at a time.
_CHUNK = 1 << 14
# Sweeps per block of the block sampler, and its repair rounds per chunk
# before the per-site loop finishes the chunk (see _Blocks).
_BLOCK = 32
_ROUNDS = 4


class IsingNetwork(Value):
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
    """A finite JSON number as a float, else OutOfRange naming ``where``."""
    if (number := finite_number(value)) is None:
        raise OutOfRange(f"{where} must be a finite number, got {value!r}")
    return number


def require_enumerable(n_nodes: int) -> None:
    """Raise TooLarge past 20 nodes, where listing all 2^n states (the exact
    law, the state frequencies) stops being practical."""
    if n_nodes > _EXACT_MAX_NODES:
        raise TooLarge(
            f"state enumeration capped at {_EXACT_MAX_NODES} nodes, got {n_nodes}"
        )


def boltzmann_exact(net: IsingNetwork) -> np.ndarray:
    """Normalized exp(-E) over all 2^n states, indexed by the bit pattern of z.

    Full enumeration, _CHUNK states at a time, so no (2^n, n) matrix is
    made; refuses networks beyond 20 nodes.
    """
    n = net.n_nodes
    require_enumerable(n)
    energies = np.empty(2**n)
    for lo in range(0, 2**n, _CHUNK):
        # Row s holds the bits of state index lo + s, node j = bit j.
        index = np.arange(lo, min(lo + _CHUNK, 2**n))
        states = ((index[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        energies[lo : lo + len(index)] = -(
            0.5 * np.einsum("si,ij,sj->s", states, net.couplings, states)
            + states @ net.fields
        )
    weights = np.exp(-(energies - energies.min()))
    return weights / weights.sum()


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
    tabulate: [idx] is _threshold of the local field in state idx, h plus
    row[k] over its set bits k, added in ascending k."""

    def __init__(self, net: IsingNetwork, node: int, glauber: bool) -> None:
        self.h, self.row = float(net.fields[node]), net.couplings[node].tolist()
        self.node, self.glauber = node, glauber

    def __getitem__(self, idx: int) -> float:
        own = idx >> self.node & 1
        local, row = self.h, self.row
        while idx:
            low = idx & -idx
            local += row[low.bit_length() - 1]
            idx ^= low
        return float(_threshold(local, own, self.glauber))


def uniforms_per_sweep(n_nodes: int, scan: str) -> int:
    """Uniforms one sweep consumes: n order keys under random scan, then n
    update draws and n emission draws."""
    return (3 if scan == "random" else 2) * n_nodes


class _Blocks:
    """The block sampler: a chunk's sweeps as blocks of _BLOCK consecutive
    sweeps that advance side by side, one numpy step per site update.

    A sweep is a deterministic function of the state it starts from and its
    draws, and chains driven by the same draws from different states soon
    meet and then move together (Propp & Wilson 1996). Block 0 starts from
    the chunk's true state. Every other block starts from a guess: one
    sweep from that true state on the last draws of the block before it,
    which is often that block's true end already. A block is exact once its
    start equals the end of its predecessor and that block is exact.

    Each repair round runs again, side by side, every block whose start
    differs from its predecessor's end, from that end, each stopping at the
    first sweep where its new state equals its old one: from there on its
    old path is the new one. Block 0 is exact, and each round makes the
    first block in doubt exact. After _ROUNDS rounds, _sweep_sites runs the
    chunk on from the first block still in doubt until its path meets the
    old one, so a chain that never meets itself costs what the per-site
    loop costs.

    Every threshold is _threshold of one field sum, which _lookup adds for
    many states at once. Up to 12 nodes, table row j holds node j's
    threshold in every state, built by _lookup over all 2^n states, and
    rows holds those rows as lists for the per-site loop. Beyond, each step
    calls _lookup on its lanes, and rows holds a _LookupRow per node, which
    adds the same floats one state at a time. So every lane and the
    per-site loop compare their draws with the same thresholds, and the
    states are the same.
    """

    def __init__(self, net: IsingNetwork, dynamics: str, scan: str) -> None:
        n = self.n = net.n_nodes
        self.fields, self.scan = net.fields, scan
        self.glauber = dynamics == "glauber"
        # Row k holds coupling (j, k) at column j: the k-th addend of node
        # j's field.
        self.columns = np.ascontiguousarray(net.couplings.T)
        self.masks = 1 << np.arange(n)[:, None]
        self.rerun = self.serial = 0
        if n > _TABLE_MAX_NODES:
            self.table, self.rows = None, [_LookupRow(net, j, self.glauber) for j in range(n)]
        else:
            self.table = np.stack([self._lookup(np.arange(2**n), j) for j in range(n)])
            self.rows = self.table.tolist()

    def chunk(self, draws: np.ndarray, idx: int) -> np.ndarray:
        """The state index after each sweep in a chunk of draws, from state
        idx."""
        n, chunk = self.n, draws.shape[0]
        size = min(_BLOCK, chunk)
        blocks = -(-chunk // size)
        picks = draws[:, :n] if self.scan == "fixed" else draws[:, n : 2 * n]
        updates = _by_sweep(picks, size, blocks)
        nodes = None
        if self.scan == "random":
            nodes = _by_sweep(np.argsort(draws[:, :n], axis=1, kind="stable"), size, blocks)
        # paths[b, t] is block b's state after its sweep t.
        paths = np.empty((blocks, size), dtype=np.int64)
        starts = np.full(blocks, idx, dtype=np.int64)
        # Block b > 0 guesses its start: one sweep from idx on the last
        # draws of block b - 1, its true end wherever chains meet that soon.
        guess = starts[1:]
        self._sweep(guess, updates[-1][:, :-1], None if nodes is None else nodes[-1][:, :-1])
        states = starts.copy()
        for t in range(size):
            self._sweep(states, updates[t], None if nodes is None else nodes[t])
            paths[:, t] = states
        rounds = 0
        while (doubt := np.flatnonzero(starts[1:] != paths[:-1, -1]) + 1).size:
            if rounds < _ROUNDS:
                rounds += 1
                starts[doubt] = paths[doubt - 1, -1]
                self._repair(paths, starts, doubt, updates, nodes)
            else:
                self._finish(paths, starts, int(doubt[0]), draws)
        return paths.ravel()[:chunk]

    def _repair(self, paths, starts, lanes, updates, nodes) -> None:
        """Run the blocks in lanes again from their starts, each until its
        new state meets its old one."""
        states = starts[lanes]
        for t in range(paths.shape[1]):
            picks = None if nodes is None else nodes[t][:, lanes]
            self._sweep(states, updates[t][:, lanes], picks)
            self.rerun += lanes.size
            met = paths[lanes, t] == states
            paths[lanes, t] = states
            if met.any():
                lanes, states = lanes[~met], states[~met]
                if not lanes.size:
                    return

    def _finish(self, paths, starts, block: int, draws: np.ndarray) -> None:
        """Run the chunk on with _sweep_sites from the exact end before
        block, in pieces of one block, then two, four and so on, until its
        path meets the old one or the chunk ends."""
        size, chunk = paths.shape[1], draws.shape[0]
        path = paths.ravel()
        lo, length = block * size, size
        while lo < chunk:
            hi = min(lo + length, chunk)
            start = int(path[lo - 1])
            new = _sweep_sites(self.rows, draws[lo:hi], self.scan, not self.glauber, start)
            new = np.fromiter(new, np.int64, count=hi - lo)
            met = (path[lo:hi] == new).any()
            path[lo:hi] = new
            self.serial += hi - lo
            if met:
                break
            lo, length = hi, 2 * length
        # The blocks up to the last sweep run are exact now.
        last = (hi - 1) // size
        starts[block : last + 1] = paths[block - 1 : last, -1]

    def _sweep(self, states: np.ndarray, draws: np.ndarray, nodes: np.ndarray | None) -> None:
        """One sweep of every lane, in place: states holds each lane's
        state index, draws[p] each lane's update draw at position p, and
        under random scan nodes[p] the node it visits."""
        n, table = self.n, self.table
        if nodes is not None:
            bits = 1 << nodes
            clears = ~bits
            if table is not None:
                offsets = nodes << n
        for p in range(n):
            if nodes is None:
                node, bit, clear = p, 1 << p, ~(1 << p)
            else:
                node, bit, clear = nodes[p], bits[p], clears[p]
            if table is None:
                threshold = self._lookup(states, node)
            elif nodes is None:
                threshold = table[p].take(states)
            else:
                threshold = table.take(offsets[p] + states)
            if self.glauber:
                states &= clear
                states |= (draws[p] < threshold) * bit
            else:
                states ^= (draws[p] < threshold) * bit

    def _lookup(self, states: np.ndarray, node) -> np.ndarray:
        """Each lane's threshold of node (one int, or one per lane) in its
        state: the field h plus the couplings of the state's set bits,
        added in ascending bit order as in _LookupRow. A bit that is
        not set adds its coupling times 0.0, a zero, which leaves the field
        as it is but for the sign of a zero field, and _threshold is the
        same at 0.0 and -0.0."""
        terms = ((states & self.masks) != 0).astype(float)
        terms *= self.columns[:, node, None] if isinstance(node, int) else self.columns[:, node]
        local = self.fields[node] + terms[0]
        for term in terms[1:]:
            local += term
        return _threshold(local, states >> node & 1, self.glauber)


def _by_sweep(block: np.ndarray, size: int, blocks: int) -> np.ndarray:
    """A (sweeps, n) block of a chunk as (size, n, blocks): [t][p] holds
    every block's column p at its sweep t, zero-padded past the chunk's
    last sweep."""
    short = size * blocks - block.shape[0]
    if short:
        block = np.concatenate([block, np.zeros((short, block.shape[1]), dtype=block.dtype)])
    return block.reshape(blocks, size, -1).transpose(1, 2, 0).copy()


def _sweep_sites(tables: list, draws: np.ndarray, scan: str, flip: bool, idx: int) -> list[int]:
    """The state after each sweep in a chunk of draws, one threshold lookup
    and compare per site update; fixed scan's order is range(n) each sweep."""
    n = len(tables)
    bit = [1 << j for j in range(n)]
    if scan == "fixed":
        orders, updates = repeat(range(n)), draws[:, :n]
    else:
        orders = _rows(np.argsort(draws[:, :n], axis=1, kind="stable"))
        updates = draws[:, n : 2 * n]
    path = []
    for order, row in zip(orders, _rows(updates)):
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

    Sweeps run in chunks of _CHUNK, each cut into blocks of _BLOCK sweeps
    that advance side by side with one numpy step per site update, block 0
    from the true state and the others from guesses, and then are repaired
    exactly (see _Blocks). A step gathers its thresholds from the 2^n table
    up to 12 nodes and sums each lane's field beyond; a chunk whose blocks
    still disagree after _ROUNDS repair rounds is finished by the per-site
    loop, _sweep_sites. The table, the lanes' sums and the per-site loop's
    rows take _threshold of the same float additions (see _Blocks), so
    every path agrees by construction on the same stream.

    Each chunk's latent bits and emissions are written one byte of the state
    index at a time (see _byte_tables): one np.take of the byte's node bits
    into latent, and one of its emission thresholds, which the emission
    draws are compared with straight into emitted. The indices are kept as
    the trajectory's states, in the narrowest type for 2^n (_index_dtype).
    Its work counts the uniforms drawn, the sweeps the repair rounds ran
    again (rerun_sweeps) and the sweeps the per-site loop ran after the
    round cap (serial_sweeps).
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
    sampler = _Blocks(net, dynamics, scan)
    byte_tables = _byte_tables(net)
    idx = done = 0
    while done < sweeps:
        chunk = min(sweeps - done, _CHUNK)
        draws = gen.random((chunk, width))
        indices = sampler.chunk(draws, idx)
        idx = int(indices[-1])
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
        "rerun_sweeps": sampler.rerun,
        "serial_sweeps": sampler.serial,
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
    Raises OutOfRange for a negative burn-in, a thinning step below 1 or a
    latent path that is not (sweeps, nodes), as a mastery chain's 1-D one,
    InsufficientData when the burn-in leaves no sweep to count, and TooLarge
    beyond 20 nodes.
    """
    if burn_in < 0:
        raise OutOfRange(f"burn_in must be >= 0, got {burn_in}")
    if thin < 1:
        raise OutOfRange(f"thin must be >= 1, got {thin}")
    if trace.latent.ndim != 2:
        raise OutOfRange(
            f"trace.latent must be 2-D (sweeps, nodes), got shape {trace.latent.shape}"
        )
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
