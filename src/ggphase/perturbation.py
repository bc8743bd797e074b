"""Stationary perturbation theory through third order for nondegenerate
spectra, including the table of closed triple-product phases that the
third-order energy shift sums over.

The third-order double sum runs over matrix-element triples V_nk V_kl V_ln
whose Arg is a gauge-invariant three-state chain phase; the table exposes
each triple's modulus, phase, and energy denominator separately so the phase
content of the shift can be inspected term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateSpectrum, DomainError, InvalidArgument
from .hilbert import (
    DEFAULT_TOLS,
    Observable,
    StateVector,
    ToleranceConfig,
    finite_array,
    finite_number,
    integer,
    orthonormality_defect,
)

__all__ = [
    "EigenSystem",
    "ShiftSeries",
    "PhaseTermTable",
    "energy_shift",
    "perturbed_state",
    "third_order_phase_terms",
]

_REALITY_TOL = 1e-12
# Smallest admissible level spacing; every formula here divides by gaps.
_GAP_TOL = 1e-8


class EigenSystem:
    """A nondegenerate reference spectrum with its orthonormal eigenbasis.

    Parameters
    ----------
    energies : sequence of float
        Strictly ascending level energies.
    basis : sequence of StateVector, or None
        One orthonormal eigenvector per energy, in the same order. None is
        the standard basis: level k lives on the k-th coordinate axis.

    A level spacing at or below 1e-8 raises DegenerateSpectrum.
    """

    __slots__ = ("_energies", "_basis")

    def __init__(
        self,
        energies,
        basis: Sequence[StateVector] | None,
        tol: ToleranceConfig = DEFAULT_TOLS,
    ):
        e = finite_array(energies, 1, "energies", np.float64)
        if e.shape[0] < 2:
            raise InvalidArgument(f"need at least 2 levels, got shape {e.shape}")
        if basis is not None and len(basis) != e.shape[0]:
            raise InvalidArgument(f"{len(basis)} basis states for {e.shape[0]} energies")
        with np.errstate(over="ignore"):  # a gap past the doubles is inf, and large enough
            gaps = np.diff(e)
        if np.any(gaps <= 0.0):
            raise InvalidArgument("energies must be strictly ascending")
        if gaps.min() <= _GAP_TOL:
            k = int(np.argmin(gaps))
            raise DegenerateSpectrum(
                f"levels {k} and {k + 1} are separated by {gaps.min():.3e} <= {_GAP_TOL:g}"
            )
        if basis is not None:
            basis = np.stack([b.components for b in basis])
            gram_defect = orthonormality_defect(basis)
            if gram_defect > tol.tol_herm:
                raise InvalidArgument(
                    f"basis is not orthonormal: max |<b_a|b_b> - delta_ab| = {gram_defect:.3e}"
                )
            basis.setflags(write=False)
        self._energies = e
        self._basis = basis

    @classmethod
    def standard(cls, energies) -> "EigenSystem":
        """Diagonal reference: level k lives on the k-th coordinate axis."""
        return cls(energies, None)

    @property
    def energies(self) -> np.ndarray:
        return self._energies

    @property
    def basis_matrix(self) -> np.ndarray:
        """Basis states stacked as rows, shape (levels, dim)."""
        return np.eye(self.level_count, dtype=np.complex128) if self._basis is None else self._basis

    @property
    def level_count(self) -> int:
        return self._energies.shape[0]

    @property
    def dim(self) -> int:
        return self.level_count if self._basis is None else self._basis.shape[1]

    def __repr__(self) -> str:
        return f"EigenSystem(levels={self.level_count}, dim={self.dim})"


@dataclass(frozen=True)
class ShiftSeries:
    """Energy-shift expansion coefficients for one level.

    total evaluates coupling*order1 + coupling^2*order2 + coupling^3*order3;
    the orders themselves are coupling-independent.
    """

    order1: float
    order2: float
    order3: float
    coupling: float

    @property
    def total(self) -> float:
        c = self.coupling
        return c * self.order1 + c * c * self.order2 + c * c * c * self.order3


@dataclass(frozen=True, eq=False)
class PhaseTermTable:
    """Closed matrix-element triples as read-only columns, one row per index pair.

    Row r holds the pair (k[r], l[r]), the modulus and wrapped Arg gamma_v
    of its triple, and its energy denominator, which is real for stationary
    perturbation rows and complex (regulated) for scattering rows. Rows are
    k-major; pairs whose modulus is at or below tol_zero are omitted.
    """

    k: np.ndarray
    l: np.ndarray
    modulus: np.ndarray
    gamma_v: np.ndarray
    denominator: np.ndarray

    def __len__(self) -> int:
        return self.k.shape[0]

    def reconstruct(self) -> complex:
        """Sum of modulus * exp(i gamma_v) / denominator over all rows."""
        terms = self.modulus * np.exp(1j * self.gamma_v) / self.denominator
        return complex(_kernels.fsum(terms.real), _kernels.fsum(terms.imag))


def _wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle for angles in [-2 pi, 2 pi]; each shift by 2 pi is exact."""
    a = np.where(a > math.pi, a - 2.0 * math.pi, a)
    return np.where(a <= -math.pi, a + 2.0 * math.pi, a)


def _closed_triples(first, middle, last, den, labels, tol: ToleranceConfig) -> PhaseTermTable:
    """Table of the triples first[a] middle[a, b] last[b] over all index pairs (a, b).

    The row of (a, b) carries the pair (labels[a], labels[b]) and the
    denominator den[a] * den[b], and is kept when its modulus exceeds
    tol_zero. The Args are wrapped after each addition, so a real triple
    has gamma_v exactly 0 or pi.
    """
    # An overflowing product stays inf; the report emitter names it (exit 2).
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.abs(first)[:, None] * np.abs(middle) * np.abs(last)[None, :]
        a, b = np.nonzero(modulus > tol.tol_zero)
        gamma = _wrap_angles(
            _wrap_angles(np.angle(first[a]) + np.angle(middle[a, b])) + np.angle(last[b])
        )
        columns = (labels[a], labels[b], modulus[a, b], gamma, den[a] * den[b])
    for col in columns:
        col.setflags(write=False)
    return PhaseTermTable(*columns)


def _level_projection(
    sys: EigenSystem, V: Observable, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V in the eigenbasis, the levels k != n (ascending) and the gaps E_n - E_k.

    The projected V is symmetrized so W[l,k] == conj(W[k,l]) exactly, which
    makes the double sums below real to the last bit instead of merely
    within the hermiticity tolerance of the input.
    """
    if not 0 <= integer("level", n) < sys.level_count:
        raise InvalidArgument(f"level {n} out of range for {sys.level_count} levels")
    if V.dim != sys.dim:
        raise InvalidArgument(f"V dim {V.dim} does not match system dim {sys.dim}")
    b = sys._basis
    others = np.delete(np.arange(sys.level_count), n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan reaches the report emitter
        # the standard basis (None) takes V as it is, each -0.0 part read as
        # +0.0, where the basis change's sums of zero products gave either sign
        m = V.entries + 0.0 if b is None else b.conj() @ V.entries @ b.T
        return 0.5 * (m + m.conj().T), others, sys.energies[n] - sys.energies[others]


def energy_shift(
    sys: EigenSystem, V: Observable, n: int, coupling: float
) -> ShiftSeries:
    """First three orders of the level-n energy shift under coupling * V.

    order1 = V_nn
    order2 = sum_{k != n} |V_nk|^2 / (E_n - E_k)
    order3 = sum_{k,l != n} V_nk V_kl V_ln / ((E_n - E_k)(E_n - E_l))
             - V_nn sum_{k != n} |V_nk|^2 / (E_n - E_k)^2

    Every order is real; the third-order double sum cancels its imaginary
    parts in (k,l) <-> (l,k) pairs and is verified to below 1e-12 of the
    summed moduli of its terms.
    """
    w, others, gaps = _level_projection(sys, V, n)
    finite_number("coupling", coupling)
    order1 = float(w[n, n].real)
    # An overflowing order stays non-finite; the report emitter names it (exit 2).
    with np.errstate(over="ignore", invalid="ignore"):
        strength = np.abs(w[n, others]) ** 2
        order2 = _kernels.fsum(strength / gaps)
        double = (
            w[n, others][:, None] * w[np.ix_(others, others)] * w[others, n][None, :]
            / np.multiply.outer(gaps, gaps)
        ).ravel()
        residue = _kernels.fsum(double.imag)
        size = _kernels.fsum(np.abs(double))
        if abs(residue) > _REALITY_TOL * size:
            raise DomainError(f"third-order imaginary residue {residue:.3e} exceeds 1e-12 "
                              f"of the terms' size {size:.3e}")
        correction = order1 * _kernels.fsum(strength / gaps**2)
        order3 = _kernels.fsum(double.real) - correction
    return ShiftSeries(order1, order2, order3, coupling)


def perturbed_state(
    sys: EigenSystem, V: Observable, n: int, coupling: float
) -> StateVector:
    """Level-n eigenvector through second order in coupling * V.

    Uses the normalization <n0|n> = 1, under which the expansion is

    |n> = |n0> + c sum_{k != n} |k0> V_kn / (E_n - E_k)
          + c^2 sum_{k != n} |k0> [ sum_{l != n} V_kl V_ln / ((E_n-E_k)(E_n-E_l))
                                    - V_nn V_kn / (E_n - E_k)^2 ],

    so the result is not unit-normalized.
    """
    w, others, gaps = _level_projection(sys, V, n)
    finite_number("coupling", coupling)
    col = w[others, n]
    first = col / gaps
    second = (
        w[np.ix_(others, others)] * col[None, :] / np.multiply.outer(gaps, gaps)
    ).sum(axis=1) - w[n, n] * col / gaps**2
    coeff = coupling * first + coupling**2 * second
    return StateVector(sys.basis_matrix[n] + coeff @ sys.basis_matrix[others])


def third_order_phase_terms(
    sys: EigenSystem,
    V: Observable,
    n: int,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> PhaseTermTable:
    """Triple-product decomposition of the third-order double sum for level n.

    One row per ordered pair (k, l) with k, l != n and nonvanishing modulus
    |V_nk V_kl V_ln|; gamma_v is the wrapped sum of the three element Args
    and the denominator is (E_n - E_k)(E_n - E_l). Row order is k-major.

    Summing modulus * cos(gamma_v) / denominator over the rows reproduces
    the double-sum part of ShiftSeries.order3; rows (k, l) and (l, k) carry
    opposite gamma_v.
    """
    w, others, gaps = _level_projection(sys, V, n)
    return _closed_triples(
        w[n, others], w[np.ix_(others, others)], w[others, n], gaps, others, tol
    )
