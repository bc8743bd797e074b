"""Core Hilbert-space types: states, Hermitian observables, density matrices.

States are ray representatives and need not be normalized; every phase formula
downstream divides by the norms it needs. Amplitudes whose modulus falls below
``tol_zero`` have no Arg and raise a typed error instead of returning NaN.
All phases live in the half-open interval (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedPhase, UndefinedWeakValue

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLS",
    "StateVector",
    "Observable",
    "DensityMatrix",
    "wrap_angle",
    "wrapped_distance",
    "principal_arg",
    "matrix_element",
    "relative_phase",
    "weak_value",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical guard thresholds shared by every operation.

    Attributes
    ----------
    tol_zero : float
        Modulus below which an amplitude is treated as vanishing.
    tol_herm : float
        Largest allowed entrywise deviation from Hermiticity; density
        matrices also use it for their unit-trace and idempotency checks.
    tol_phase : float
        Angular tolerance for phase comparisons.
    """

    tol_zero: float = 1e-12
    tol_herm: float = 1e-10
    tol_phase: float = 1e-9

    def __post_init__(self):
        for name in ("tol_zero", "tol_herm", "tol_phase"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


DEFAULT_TOLS = ToleranceConfig()

_TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Reduce an angle to the interval (-pi, pi].

    The -pi endpoint maps to +pi so every angle has a unique representative.
    """
    wrapped = math.remainder(float(angle), _TWO_PI)
    return math.pi if wrapped <= -math.pi else wrapped


def wrapped_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(wrap_angle(a - b))


def principal_arg(z: complex) -> float:
    """Arg of a complex number in (-pi, pi] (the -pi branch cut maps to +pi)."""
    return wrap_angle(cmath.phase(complex(z)))


def _as_complex_array(data, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


class StateVector:
    """A finite-dimensional complex ray representative.

    Normalization is not required, but the zero vector is rejected because it
    represents no ray.

    Parameters
    ----------
    components : array_like of complex
        The vector components in the computational basis.
    tol : ToleranceConfig, optional
        Supplies the zero-vector threshold.
    """

    __slots__ = ("_components",)

    def __init__(self, components, tol: ToleranceConfig = DEFAULT_TOLS):
        arr = _as_complex_array(components, 1, "state vector")
        if float(np.vdot(arr, arr).real) <= tol.tol_zero:
            raise ValueError("state vector has vanishing norm")
        arr.setflags(write=False)
        self._components = arr

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "StateVector":
        """The computational basis vector e_index in dimension dim."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        vec = np.zeros(dim, dtype=np.complex128)
        vec[index] = 1.0
        return cls(vec)

    @property
    def components(self) -> np.ndarray:
        return self._components

    @property
    def dim(self) -> int:
        return self._components.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self._components, self._components).real)

    def normalized(self) -> "StateVector":
        """The unit-norm representative of the same ray."""
        return StateVector(self._components / math.sqrt(self.norm_sq))

    def __repr__(self) -> str:
        return f"StateVector({self._components.tolist()!r})"


class Observable:
    """A Hermitian complex square matrix.

    Hermiticity is verified entrywise at construction within ``tol_herm``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, tol: ToleranceConfig = DEFAULT_TOLS):
        arr = _as_complex_array(entries, 2, "observable")
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"observable must be square, got shape {arr.shape}")
        deviation = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
        if deviation > tol.tol_herm:
            raise ValueError(f"observable is not Hermitian (deviation {deviation:.3e})")
        arr.setflags(write=False)
        self._entries = arr

    @classmethod
    def identity(cls, dim: int) -> "Observable":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


class DensityMatrix:
    """A pure-state density matrix: Hermitian, unit trace, idempotent.

    Built from a state via :meth:`from_state`; direct construction validates
    all three invariants, so mixed states are rejected.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, tol: ToleranceConfig = DEFAULT_TOLS):
        arr = _as_complex_array(entries, 2, "density matrix")
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {arr.shape}")
        if float(np.max(np.abs(arr - arr.conj().T))) > tol.tol_herm:
            raise ValueError("density matrix is not Hermitian")
        if abs(complex(np.trace(arr)) - 1.0) > tol.tol_herm:
            raise ValueError("density matrix trace differs from 1")
        if float(np.max(np.abs(arr @ arr - arr))) > tol.tol_herm:
            raise ValueError("density matrix is not idempotent (mixed states rejected)")
        arr.setflags(write=False)
        self._entries = arr

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        v = state.components
        return cls(np.outer(v, v.conj()) / state.norm_sq)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]


def observable_entries(O: Observable | None, dim: int) -> np.ndarray:
    """The entries of an optional observable; None means the dim x dim identity.

    Raises
    ------
    ValueError
        If the observable's dimension differs from ``dim``.
    """
    if O is None:
        return np.eye(dim, dtype=np.complex128)
    if O.dim != dim:
        raise ValueError(f"observable dim {O.dim} does not match state dim {dim}")
    return O.entries


def matrix_element(A: StateVector, O: Observable | None, B: StateVector) -> complex:
    """The amplitude <A|O|B>, or the inner product <A|B> when O is None.

    Parameters
    ----------
    A, B : StateVector
        Bra and ket states (A enters conjugated).
    O : Observable or None
        None stands for the identity.

    Returns
    -------
    complex
    """
    if A.dim != B.dim:
        raise ValueError(f"state dims differ: {A.dim} vs {B.dim}")
    if O is None:
        return complex(np.vdot(A.components, B.components))
    entries = observable_entries(O, A.dim)
    return complex(np.vdot(A.components, entries @ B.components))


def relative_phase(
    A: StateVector,
    B: StateVector,
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> float:
    """Arg<A|O|B> in (-pi, pi]; with O = None this is the plain relative phase.

    Raises
    ------
    UndefinedPhase
        If |<A|O|B>| <= tol_zero: orthogonal (or O-orthogonal) states carry
        no relative phase.
    """
    amp = matrix_element(A, O, B)
    if abs(amp) <= tol.tol_zero:
        raise UndefinedPhase(
            f"relative phase undefined: |amplitude| = {abs(amp):.3e} <= tol_zero"
        )
    return principal_arg(amp)


def weak_value(
    A: StateVector,
    O: Observable | None,
    B: StateVector,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> complex:
    """The weak value <A|O|B> / <A|B>.

    Its Arg equals the difference of the O relative phase and the plain
    relative phase (mod 2 pi), whenever both are defined.

    Raises
    ------
    UndefinedWeakValue
        If |<A|B>| <= tol_zero.
    """
    overlap = matrix_element(A, None, B)
    if abs(overlap) <= tol.tol_zero:
        raise UndefinedWeakValue(
            f"weak value undefined: |<A|B>| = {abs(overlap):.3e} <= tol_zero"
        )
    return matrix_element(A, O, B) / overlap
