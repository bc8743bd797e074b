"""Typed domain errors raised when a phase, weak value, or kernel is undefined.

Every error below signals a mathematical precondition failure (a vanishing
amplitude, a degenerate spectrum, a singular kernel), never an I/O problem.
The CLI maps this hierarchy to exit status 2.
"""

__all__ = [
    "DomainError",
    "UndefinedPhase",
    "UndefinedWeakValue",
    "IdentityNotApplicable",
    "SingularConnection",
    "OrthogonalEndpoints",
    "NonOrthogonalBasis",
    "DegenerateSpectrum",
    "SingularKernel",
    "PoleAtEnergy",
    "QuadratureNotConverged",
]


class DomainError(Exception):
    """Base class for conditions under which a requested quantity does not exist."""


class UndefinedPhase(DomainError):
    """An Arg was requested of an amplitude with vanishing modulus.

    ``link_index`` identifies the first offending link for chain inputs,
    or is None when the quantity is a single amplitude.
    """

    def __init__(self, message: str, link_index: int | None = None):
        super().__init__(message)
        self.link_index = link_index


class UndefinedWeakValue(DomainError):
    """Weak value requested for an orthogonal pre/post selection pair."""


class IdentityNotApplicable(DomainError):
    """The weak-value decomposition needs mutually non-orthogonal states."""


class SingularConnection(DomainError):
    """The connection denominator vanished at an interior curve sample."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class OrthogonalEndpoints(DomainError):
    """A geodesic was requested between orthogonal states."""


class NonOrthogonalBasis(DomainError):
    """The projective cycle needs an orthonormal measurement basis."""


class DegenerateSpectrum(DomainError):
    """Nondegenerate perturbation theory hit a (near-)degenerate level pair."""


class SingularKernel(DomainError):
    """The scattering linear system (1 - G0 V) is singular or unusably conditioned."""


class PoleAtEnergy(DomainError):
    """The separable T-matrix denominator vanished (bound-state pole at this energy)."""


class QuadratureNotConverged(DomainError):
    """The principal-value quadrature overflowed or its refinements never agreed."""
