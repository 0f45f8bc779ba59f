"""Reproducible random streams.

All sampling in this package draws from counter-based Philox generators keyed
by an integer seed plus a path of nonnegative integers. Distinct paths give
statistically independent streams regardless of the order they are consumed
in, so parallel work can be scheduled freely without changing results.
A key is a plain value; numpy is imported only when a generator is made.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._value import Value

if TYPE_CHECKING:
    import numpy as np

# Fixed default so bare CLI invocations are reproducible; pass seed="auto"
# on the command line to opt into entropy.
DEFAULT_SEED = 20240901


class RngKey(Value):
    """Seed plus derivation path; the provenance record for any sample."""

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *path: int) -> "RngKey":
        return RngKey(self.seed, self.path + path)

    def generator(self) -> np.random.Generator:
        import numpy as np

        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))
