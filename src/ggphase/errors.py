"""The error taxonomy: a job asked wrongly, or a job with no defined answer.

InvalidArgument (a ValueError) says an argument or input is malformed or out
of range: a chain of two states, a non-Hermitian observable, a negative time
step. The CLI maps it to exit status 1, like a bad flag or an unreadable file.
Every number and array argument is checked in one place, ggphase.hilbert
(finite_number, finite_array): a string, an integer past the doubles, nan and
inf raise InvalidArgument there, never a bare TypeError or OverflowError.

DomainError and its subclasses say that a well-posed question has no answer:
a vanishing amplitude, a degenerate spectrum, a singular kernel, or a result
beyond the range of a double (Overflow). The CLI maps them to exit status 2.
Any other exception is a bug.
"""

__all__ = [
    "InvalidArgument",
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
    "Overflow",
]


class InvalidArgument(ValueError):
    """An argument or input is malformed or out of range: the job was asked wrongly."""


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


class Overflow(DomainError):
    """A result, or a quantity it is built from, exceeds the range of a double."""
