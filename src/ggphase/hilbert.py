"""Core Hilbert-space types: states and Hermitian observables.

States are ray representatives and need not be normalized; every phase formula
downstream divides by the norms it needs. Amplitudes whose modulus falls below
``tol_zero`` have no Arg and raise a typed error instead of returning NaN.
All phases live in the half-open interval (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, Overflow, UndefinedPhase, UndefinedWeakValue

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLS",
    "StateVector",
    "Observable",
    "wrap_angle",
    "wrapped_distance",
    "principal_arg",
    "matrix_element",
    "relative_phase",
    "weak_value",
]


def finite_number(name: str, value, positive: bool = False) -> float:
    """``value`` as a float; InvalidArgument unless it is a finite real number,
    and > 0 when ``positive``. A string is refused, not parsed, and a complex
    number, numpy's included, is refused, not cast to its real part."""
    try:
        x = math.nan if isinstance(value, (str, bytes, complex, np.complexfloating)) else float(value)
    except OverflowError:
        raise InvalidArgument(f"{name} must be a finite number, got an integer too large for a double") from None
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise InvalidArgument(f"{name} must be a finite number, got {value!r}")
    if positive and x <= 0.0:
        raise InvalidArgument(f"{name} must be positive, got {value!r}")
    return x


def integer(name: str, value) -> int:
    """``value`` as an int; InvalidArgument unless it is a Python or numpy
    integer. A bool, a string and a float, even a whole one, are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite_array(data, ndim: int, what: str, dtype=np.complex128) -> np.ndarray:
    """``data`` as a read-only C-ordered array of ``dtype``; InvalidArgument
    unless numpy converts it and it has ``ndim`` dimensions and finite entries.
    Complex data given for a real dtype is refused, not cast."""
    try:
        if np.dtype(dtype).kind == "f" and np.iscomplexobj(data):  # a cast would drop the imaginary parts
            raise TypeError("complex entries where real numbers are expected")
        arr = np.asarray(data, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError) as exc:  # a string, ragged rows, an int past the doubles
        raise InvalidArgument(f"{what} is not an array of numbers: {exc}") from None
    if arr.ndim != ndim:
        raise InvalidArgument(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr.view(np.float64)).all():  # the parts of a complex array
        raise InvalidArgument(f"{what} must have finite entries")
    arr.setflags(write=False)
    return arr


def orthonormality_defect(rows: np.ndarray) -> float:
    """max |<r_a|r_b> - delta_ab| over the rows of a matrix; inf where the
    Gram matrix overflows, so an overflow fails any check against it."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.abs(rows.conj() @ rows.T - np.eye(rows.shape[0])).max(initial=0.0))
    return math.inf if math.isnan(defect) else defect


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical guard thresholds shared by every operation.

    Attributes
    ----------
    tol_zero : float
        Modulus below which an amplitude is treated as vanishing.
    tol_herm : float
        Largest allowed entrywise deviation from Hermiticity.
    tol_phase : float
        Angular tolerance for phase comparisons.
    """

    tol_zero: float = 1e-12
    tol_herm: float = 1e-10
    tol_phase: float = 1e-9

    def __post_init__(self):
        for name in ("tol_zero", "tol_herm", "tol_phase"):
            finite_number(name, getattr(self, name), positive=True)


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
    z = complex(z)
    return wrap_angle(math.atan2(z.imag, z.real))  # cmath.phase raises when the Arg underflows


def product_arg(amps: np.ndarray) -> float:
    """Arg of the product of a complex array's entries, in (-pi, pi], without
    forming the product, which may leave the doubles: the wrapped math.fsum
    of each entry's Arg by math.atan2, as principal_arg takes it (np.angle's
    SIMD arctan2 moves the last bit with the CPU's dispatch target)."""
    return wrap_angle(math.fsum(map(math.atan2, amps.imag.tolist(), amps.real.tolist())))


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
        arr = finite_array(components, 1, "state vector")
        if float(np.vdot(arr, arr).real) <= tol.tol_zero:
            raise InvalidArgument("state vector has vanishing norm")
        self._components = arr

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "StateVector":
        """The computational basis vector e_index in dimension dim."""
        dim, index = integer("dim", dim), integer("basis index", index)
        if not 0 <= index < dim:
            raise InvalidArgument(f"basis index {index} out of range for dim {dim}")
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
        v, norm_sq = self._components, self.norm_sq
        if not sys.float_info.min < norm_sq < math.inf:  # |v|^2 leaves the doubles: scale v first
            v = v / np.abs(v).max()
            norm_sq = float(np.vdot(v, v).real)
        return StateVector(v / math.sqrt(norm_sq))

    def __repr__(self) -> str:
        return f"StateVector({self._components.tolist()!r})"


class Observable:
    """A Hermitian complex square matrix.

    Hermiticity is verified entrywise at construction within ``tol_herm``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, tol: ToleranceConfig = DEFAULT_TOLS):
        arr = finite_array(entries, 2, "observable")
        if arr.shape[0] != arr.shape[1]:
            raise InvalidArgument(f"observable must be square, got shape {arr.shape}")
        with np.errstate(over="ignore"):  # a difference past the doubles is inf: not Hermitian
            deviation = float(np.abs(arr - arr.conj().T).max(initial=0.0))
        if deviation > tol.tol_herm:
            raise InvalidArgument(f"observable is not Hermitian (deviation {deviation:.3e})")
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


def observable_entries(O: Observable | None, dim: int) -> np.ndarray | None:
    """The entries of an optional observable; None, the identity, stays None.

    Raises
    ------
    InvalidArgument
        If the observable's dimension differs from ``dim``.
    """
    if O is None:
        return None
    if O.dim != dim:
        raise InvalidArgument(f"observable dim {O.dim} does not match state dim {dim}")
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

    Raises
    ------
    Overflow
        If the amplitude is not a finite double.
    """
    if A.dim != B.dim:
        raise InvalidArgument(f"state dims differ: {A.dim} vs {B.dim}")
    entries, ket = observable_entries(O, A.dim), B.components
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is refused below
        amp = complex(np.vdot(A.components, ket if entries is None else entries @ ket))
    if not cmath.isfinite(amp):
        raise Overflow(f"the amplitude <A|O|B> = {amp} is not a finite double")
    return amp


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
