"""Scalar references the tests check the package against: the Ising energy,
one node's conditional law and its single-site Glauber and Metropolis steps,
and a skill's log-likelihood through the EM's forward pass.

The step functions take their thresholds from the sampler's own
_LookupRow, so a test can ask that the sampler agree with them to the last
bit. Not a test module: pytest collects only test_*.py files.
"""

from __future__ import annotations

import contextlib

import numpy as np

from bktirt import BktParams, IsingNetwork, ResponsePanel
from bktirt.errors import OutOfRange
from bktirt.ising import _LookupRow
from bktirt.tracing import _forward, _loglik, _skill_block


def energy(net: IsingNetwork, z) -> float:
    """E(z) = -(sum_{i<j} sigma_ij z_i z_j + sum_i h_i z_i), for z of n
    entries of 0 or 1; OutOfRange otherwise."""
    z = _bits(net, z).astype(float)
    return float(-(0.5 * z @ net.couplings @ z + net.fields @ z))


def _bits(net: IsingNetwork, z) -> np.ndarray:
    """z as an array, once it is n entries of 0 or 1; OutOfRange otherwise."""
    n = net.n_nodes
    with contextlib.suppress(TypeError, ValueError):
        bits = np.asarray(z)
        if bits.shape == (n,) and bits.dtype.kind in "biuf" and np.all((bits == 0) | (bits == 1)):
            return bits
    raise OutOfRange(f"z must be {n} entries of 0 or 1, got {z!r}")


def _state_index(net: IsingNetwork, z, node) -> int:
    """State z packed as an index (node k = bit k), once z is n entries of
    0 or 1 and node an int in [0, n); OutOfRange otherwise."""
    n = net.n_nodes
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)) or not 0 <= node < n:
        raise OutOfRange(f"node must be an int in [0, {n}), got {node!r}")
    return sum(1 << k for k in np.flatnonzero(_bits(net, z)).tolist())


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
    """Energy change from flipping one node: -local from 0, local from 1,
    where local is h_node plus the couplings of z's set bits, added in
    ascending order as _LookupRow adds them."""
    idx = _state_index(net, z, node)
    local = float(net.fields[node])
    for k, coupling in enumerate(net.couplings[node].tolist()):
        if idx >> k & 1:
            local += coupling
    return local if idx >> node & 1 else -local


def metropolis_step(net: IsingNetwork, z, node: int, gen: np.random.Generator) -> np.ndarray:
    """Propose flipping one node, accept with min(1, exp(-dE)); consumes one uniform either way."""
    idx = _state_index(net, z, node)
    threshold = _LookupRow(net, node, False)[idx]
    z_new = np.array(z, dtype=np.uint8)
    z_new[node] ^= gen.random() < threshold
    return z_new


def sequence_loglik(params: BktParams, panel: ResponsePanel, skill_id: int) -> float:
    """Log-likelihood of every person's sequence for a skill, from the
    forward pass that starts each of fit_baum_welch's E-steps."""
    return _loglik(_forward(params, _skill_block(panel, skill_id)))
