"""Domain error hierarchy.

Every library check that rejects an argument or an input raises a subclass
of DomainError, and the subclass names the case. The CLI maps these to exit
code 1 and prints each as one ``ClassName: message`` line; a file that
cannot be read or decoded exits 2, and any other error is a fault.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Input is outside an operation's documented domain."""

    def render(self) -> str:
        return f"{type(self).__name__}: {self}"


class OutOfRange(DomainError):
    """An argument or field lies outside its allowed range or set of values."""


class ForgettingNonzero(DomainError):
    """p_forget must be exactly 0 under the classic constraint."""


class Unidentified(DomainError):
    """Guess or slip at or above 0.5 under the identified constraint."""


class InvalidPanel(DomainError):
    """Response panel violates its keying or attempt-order invariants."""


class Reducible(DomainError):
    """The latent chain has no unique stationary distribution."""


class NonErgodic(DomainError):
    """Operation requires an irreducible, aperiodic latent chain."""


class ZeroLikelihood(DomainError):
    """An observed response has probability zero under the parameters."""


class UnknownSkill(DomainError):
    """The panel holds no sequences for the requested skill."""


class InvalidInit(DomainError):
    """EM starting point violates the requested constraint set."""


class InsufficientData(DomainError):
    """Too few usable observations for the requested fit or statistic."""


class DegenerateFit(DomainError):
    """The fit problem is rank-deficient (e.g. all abscissae equal)."""


class OutOfDomain(DomainError):
    """Log-scale ability/difficulty must be nonpositive."""


class TooLarge(DomainError):
    """A request beyond a size cap: exact enumeration of a large network,
    an experiment's pair grid, or an Ising run's site updates."""
