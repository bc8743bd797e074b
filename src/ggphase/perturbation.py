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

import numpy as np

from . import _kernels
from .errors import DegenerateSpectrum, DomainError, InvalidArgument, Overflow
from .hilbert import (
    DEFAULT_TOLS,
    Observable,
    StateVector,
    ToleranceConfig,
    finite_array,
    finite_number,
    integer,
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
    """A nondegenerate reference spectrum: level k lives on the k-th
    coordinate axis, so V is given in the eigenbasis of H0.

    Parameters
    ----------
    energies : sequence of float
        Strictly ascending level energies.

    A level spacing at or below 1e-8 raises DegenerateSpectrum. A problem
    posed in another orthonormal eigenbasis, level k on the k-th column of a
    unitary B, is this one with V replaced by the symmetrised B^H V B, and
    its perturbed state maps back as B @ state.components.
    """

    __slots__ = ("_energies",)

    def __init__(self, energies):
        e = finite_array(energies, 1, "energies", np.float64)
        if e.shape[0] < 2:
            raise InvalidArgument(f"need at least 2 levels, got shape {e.shape}")
        with np.errstate(over="ignore"):  # a gap past the doubles is inf, and large enough
            gaps = np.diff(e)
        if np.any(gaps <= 0.0):
            raise InvalidArgument("energies must be strictly ascending")
        if gaps.min() <= _GAP_TOL:
            k = int(np.argmin(gaps))
            raise DegenerateSpectrum(
                f"levels {k} and {k + 1} are separated by {gaps.min():.3e} <= {_GAP_TOL:g}"
            )
        self._energies = e

    @property
    def energies(self) -> np.ndarray:
        return self._energies

    @property
    def level_count(self) -> int:
        return self._energies.shape[0]

    def __repr__(self) -> str:
        return f"EigenSystem(levels={self.level_count})"


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
        return _kernels.fsum_complex(self.modulus * np.exp(1j * self.gamma_v) / self.denominator)


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
    """V symmetrized as W, the levels k != n (ascending) and the gaps E_n - E_k.

    W[l,k] == conj(W[k,l]) exactly makes the double sums below real to the
    last bit, not merely within the hermiticity tolerance of the input.
    """
    if not 0 <= integer("level", n) < sys.level_count:
        raise InvalidArgument(f"level {n} out of range for {sys.level_count} levels")
    if V.dim != sys.level_count:
        raise InvalidArgument(f"V dim {V.dim} does not match {sys.level_count} levels")
    others = np.delete(np.arange(sys.level_count), n)
    m = V.entries + 0.0  # each -0.0 part read as +0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan reaches the report emitter
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

    Raises
    ------
    Overflow
        If a component of the state is not a finite double.
    """
    w, others, gaps = _level_projection(sys, V, n)
    coupling = finite_number("coupling", coupling)
    col = w[others, n]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is refused below
        first = col / gaps
        second = (
            w[np.ix_(others, others)] * col[None, :] / np.multiply.outer(gaps, gaps)
        ).sum(axis=1) - w[n, n] * col / gaps**2
        coeff = coupling * first + coupling * (coupling * second)  # a zero term stays 0 where c^2 is inf
    vec = np.insert(coeff, n, 1.0)  # e_n + sum_k coeff_k e_k
    if not np.isfinite(vec.view(np.float64)).all():
        raise Overflow(f"the level-{n} state at coupling {coupling} is not a finite double")
    return StateVector(vec)


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
