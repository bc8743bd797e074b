"""Unitary time evolution and the dynamical settings where chain phases show
up: short-time projective-measurement cycles, closed-form two-level chains,
and the perturbative survival amplitude.

Units put hbar = 1 everywhere, so frequencies are energy differences and
exp(-i t H) is the propagator of a time-independent Hermitian H.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import InvalidArgument, NonOrthogonalBasis, Overflow, UndefinedPhase
from .hilbert import (
    DEFAULT_TOLS,
    Observable,
    StateVector,
    ToleranceConfig,
    finite_number,
    integer,
    orthonormality_defect,
    principal_arg,
    product_arg,
    wrap_angle,
)

__all__ = [
    "TwoLevelParams",
    "CycleResult",
    "evolve",
    "projective_cycle_amplitude",
    "two_level_phase",
    "f_mn",
    "survival_amplitude",
]

_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class TwoLevelParams:
    """Bloch angles of cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta is restricted to [0, 2*pi] and phi to (-pi, pi].
    """

    theta: float
    phi: float

    def __post_init__(self):
        finite_number("theta", self.theta)
        finite_number("phi", self.phi)
        if not 0.0 <= self.theta <= 2.0 * math.pi:
            raise InvalidArgument(f"theta must lie in [0, 2*pi], got {self.theta}")
        if not -math.pi < self.phi <= math.pi:
            raise InvalidArgument(f"phi must lie in (-pi, pi], got {self.phi}")


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one short-time projective-measurement cycle.

    Attributes
    ----------
    amplitude : complex
        The raw three-step transition amplitude.
    extracted_phase : float
        Arg(amplitude) with the kinematic (-i epsilon)^3 factor removed,
        wrapped to (-pi, pi].
    epsilon : float
        The time step per projection.
    limit_phase : float
        Arg(<b0|H|b2><b2|H|b1><b1|H|b0>), the epsilon -> 0 limit of
        extracted_phase: the chain phase of b0 -> b2 -> b1 under H.
    """

    amplitude: complex
    extracted_phase: float
    epsilon: float
    limit_phase: float


def _spectrum(H: Observable, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors q of H and m_k = exp(-i t w_k) - 1, so that
    exp(-i t H) = 1 + q diag(m) q^H. m is formed as -2 sin^2(t w/2) - i sin(t w),
    which has no cancellation however small t w is."""
    # a bound on the spectral radius, and on |t| times it: both finite, so
    # eigh converges and every phase t w is a double
    bound = H.dim * (float(np.abs(H.entries.real).max()) + float(np.abs(H.entries.imag).max()))
    if not math.isfinite(bound * max(1.0, abs(t))):
        raise Overflow(f"the spectrum of t H overflows a double at t = {t}")
    w, q = np.linalg.eigh(H.entries)
    tw = t * w
    return q, -2.0 * np.sin(0.5 * tw) ** 2 - 1j * np.sin(tw)


def evolve(H: Observable, t: float) -> np.ndarray:
    """Propagator exp(-i t H) of a Hermitian generator, as a read-only
    (dim, dim) complex array, via eigendecomposition.

    The spectral form keeps the result unitary to roundoff for any t, unlike
    a truncated series, and 1 + q diag(m) q^H keeps every entry's relative
    accuracy at small t.
    """
    t = finite_number("time", t)
    q, m = _spectrum(H, t)
    u = np.eye(H.dim, dtype=np.complex128) + (q * m) @ q.conj().T
    defect = orthonormality_defect(u.T)  # the columns: U^H U - 1
    if defect > _UNITARITY_TOL:
        raise InvalidArgument(f"matrix is not unitary: max |U^H U - 1| = {defect:.3e}")
    u.flags.writeable = False
    return u


def projective_cycle_amplitude(
    H: Observable,
    basis: Sequence[StateVector],
    epsilon: float,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> CycleResult:
    """Amplitude of the cycle b0 -> b1 -> b2 -> b0 under exp(-i epsilon H) steps.

    amplitude = <b0|U|b2><b2|U|b1><b1|U|b0> with U = exp(-i epsilon H). Each
    link is <b_a|b_b> + sum_k (b_a q)_k m_k conj((b_b q)_k) from U = 1 + q diag(m) q^H,
    exact for any vectors and accurate at any epsilon; no propagator is formed.
    For small epsilon each off-diagonal factor is -i*epsilon*<.|H|.> to
    leading order, so extracted_phase = wrap(Arg(amplitude) + 3*pi/2) tends
    to limit_phase = Arg(<b0|H|b2><b2|H|b1><b1|H|b0>) linearly in epsilon.
    Both take their links from the chain b0 -> b2 -> b1, and limit_phase is
    its chain phase, the wrapped sum of the H links' Args: it exists where
    their product leaves the doubles.

    Raises
    ------
    NonOrthogonalBasis
        If the three states fail the orthonormality check.
    UndefinedPhase
        If any of the three H links vanishes; the limit phase then does not
        exist.
    Overflow
        If the spectrum of epsilon H exceeds a double.
    """
    if len(basis) != 3:
        raise InvalidArgument(f"cycle needs exactly 3 basis states, got {len(basis)}")
    finite_number("epsilon", epsilon, positive=True)
    if any(b.dim != H.dim for b in basis):
        raise InvalidArgument(f"basis dims {[b.dim for b in basis]} do not match H dim {H.dim}")
    stack = np.stack([b.components for b in basis])
    gram_defect = orthonormality_defect(stack)
    if gram_defect > tol.tol_herm:
        raise NonOrthogonalBasis(
            f"basis is not orthonormal: max |<b_a|b_b> - delta_ab| = {gram_defect:.3e}"
        )
    chain = stack[[0, 2, 1]]  # links <b0|.|b2>, <b2|.|b1>, <b1|.|b0>
    h_links = _kernels.chain_link_amplitudes(chain, H.entries)
    for amp, (a, b) in zip(h_links, ((0, 2), (2, 1), (1, 0))):
        if abs(amp) <= tol.tol_zero:
            raise UndefinedPhase(
                f"cycle phase undefined: |<b{a}|H|b{b}>| = {abs(amp):.3e} <= tol_zero"
            )
    q, m = _spectrum(H, epsilon)
    rows = chain.conj() @ q  # (b_a^* q)_k
    u_links = _kernels.chain_link_amplitudes(chain, None) + _kernels.sandwiches(
        rows * m, np.roll(rows, -1, axis=0).conj()
    )
    amplitude = complex(u_links[0] * u_links[1] * u_links[2])
    extracted = wrap_angle(principal_arg(amplitude) + 1.5 * math.pi)
    return CycleResult(amplitude, extracted, epsilon, product_arg(h_links))


def two_level_phase(
    kind: str,
    p: TwoLevelParams,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> float:
    """Closed-form chain phase of (|0>, |Psi(theta,phi)>, |1>) for X or Hadamard.

    For X the cyclic product is e^{i phi} sin(theta)/2, so the phase is
    wrap(phi) on theta in (0, pi) and wrap(pi + phi) on (pi, 2*pi). For the
    Hadamard the product is (cos(theta) + i sin(theta) sin(phi))/(2 sqrt 2),
    so the phase is atan2(sin(theta) sin(phi), cos(theta)); this two-argument
    form stays correct where the single-argument arctan(tan(theta) sin(phi))
    loses the cos(theta) < 0 branch.

    Raises
    ------
    InvalidArgument
        If kind is not "x" or "hadamard".
    UndefinedPhase
        Where the product modulus vanishes: theta in {0, pi, 2*pi} for X;
        cos(theta) = 0 together with sin(theta) sin(phi) = 0 for Hadamard.
    """
    if not isinstance(kind, str) or kind not in ("x", "hadamard"):
        raise InvalidArgument(f'kind must be "x" or "hadamard", got {kind!r}')
    if kind == "x":
        modulus = 0.5 * abs(math.sin(p.theta))
        if modulus <= tol.tol_zero:
            raise UndefinedPhase(
                f"swap chain modulus |sin(theta)|/2 = {modulus:.3e} vanishes at theta = {p.theta}"
            )
        return wrap_angle(p.phi if p.theta < math.pi else math.pi + p.phi)
    re = math.cos(p.theta)
    im = math.sin(p.theta) * math.sin(p.phi)
    modulus = math.hypot(re, im) / (2.0 * math.sqrt(2.0))
    if modulus <= tol.tol_zero:
        raise UndefinedPhase(
            f"hadamard chain modulus = {modulus:.3e} vanishes at "
            f"theta = {p.theta}, phi = {p.phi}"
        )
    return math.atan2(im, re)


# Series cutoff for exponential divided differences. Every node interval of
# every row picks its own branch from its width: at or below this diameter
# the shifted Taylor series (the recursion would lose digits to
# cancellation), above it the recursion (the series would converge slowly).
# A batch runs the series once, on the intervals masked tight at every
# level, and the recursion level by level on the others. 0.05
# keeps both branches < 1e-13. The same rule picks, per third-order level
# pair of survival_amplitude, a difference quotient or the batch.
_CLUSTER_DIAMETER = 0.05
# A tight row's shifts obey |d| <= D, so series term m is at most D^m / m! of
# the first; summing the terms below the smallest T with D^T / T! < 2^-64
# (T = 10 at D = 0.05) drops a tail under 3e-20 relative.
_SERIES_TERMS = next(T for T in range(1, 64) if _CLUSTER_DIAMETER**T / math.factorial(T) < 2.0**-64)


def _cluster_series(shifts: np.ndarray, center: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Divided differences of exp over tight node clusters, one per row:
    row p holds the shifts d of its spans[p] + 1 nodes from their centroid
    center[p], padded with zero shifts to the width of the array.

    Sums exp(c) * sum_m h_m(d) / (m + n)! with n = spans[p], where h_m are
    complete homogeneous symmetric polynomials of the shifts; a zero shift
    leaves every h_m unchanged, so the padding does not move a bit.
    """
    rows = shifts.shape[0]
    h = np.zeros((_SERIES_TERMS, rows), dtype=np.complex128)
    h[0] = 1.0
    scratch = np.empty(rows, dtype=np.complex128)
    for x in shifts.T:
        for m in range(1, _SERIES_TERMS):
            h[m] += np.multiply(x, h[m - 1], out=scratch)
    # (m + n)! of every term and row, sized by _SERIES_TERMS as it is now
    factorials = np.array([float(math.factorial(j)) for j in range(_SERIES_TERMS + shifts.shape[1])])
    divisors = factorials[np.arange(_SERIES_TERMS)[:, None] + spans]
    acc = np.zeros(rows, dtype=np.complex128)
    for m in range(_SERIES_TERMS - 1, -1, -1):
        acc += np.divide(h[m], divisors[m], out=scratch)
    # the recursion above a cluster amplifies a last-bit difference to ~1e-13
    return _complex_product(np.exp(center), acc)


def _complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with each real product and sum rounded on its own: numpy's SIMD
    complex multiply may fuse into FMA, so its last bit varies with the CPU."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _ordered_exponential_integral(freqs: np.ndarray, t: float) -> np.ndarray:
    """Nested integrals of exp(i w_1 s_1) ... exp(i w_k s_k) over
    t > s_1 > ... > s_k > 0, one per row of a (B, k) frequency array.

    Each equals t^k times the divided difference of exp over the nodes
    {0, i B_1 t, ..., i B_k t} with B_j the partial sums of the row. The
    nodes are sorted along the imaginary axis and the divided differences
    built level by level over node intervals, a (B, k + 1 - span) table per
    level: tight intervals use the shifted series, wide ones the recursion,
    whose divisor is then large enough that the subtraction is benign.

    Where |t|^k may pass the largest double, with |t| = 2^q s, 1 <= s < 2,
    level span holds 2^(q span) times its divided differences (an exact
    scaling, so nothing underflows) and the integral is s^k times the last
    level; elsewhere q = 0. Raises Overflow where an integral or a phase
    t B_j is not a finite double.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    rows, k = freqs.shape
    if t == 0.0:
        return np.zeros(rows, dtype=np.complex128)
    e = math.frexp(t)[1]
    q = e - 1 if k * e > 1023 else 0
    partial = np.zeros((rows, k + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(freqs, axis=1, out=partial[:, 1:])
        nodes = 1j * partial * t
        nodes = np.take_along_axis(nodes, np.argsort(nodes.imag, axis=1), axis=1)
        # the tight windows of every level depend on the sorted nodes alone, so
        # the series runs once, on all of them, before the recursion
        masks = [nodes.imag[:, span:] - nodes.imag[:, :-span] <= _CLUSTER_DIAMETER for span in range(1, k + 1)]
        windows = [nodes[rows[:, None], starts[:, None] + np.arange(span + 1)]  # (count, span + 1)
                   for span, (rows, starts) in enumerate(map(np.nonzero, masks), 1)]
        rows = np.cumsum([0] + [len(w) for w in windows])  # level span's rows: rows[span - 1] onwards
        if rows[-1]:
            shifts = np.zeros((rows[-1], k + 1), dtype=np.complex128)
            center = np.empty(rows[-1], dtype=np.complex128)
            for span, w, first, stop in zip(range(1, k + 1), windows, rows, rows[1:]):
                if stop > first:
                    center[first:stop] = w.mean(axis=1)
                    shifts[first:stop, : span + 1] = w - center[first:stop, None]
            spans = np.repeat(np.arange(1, k + 1), np.diff(rows))
            series = _cluster_series(shifts, center, spans)
            if q:
                series = np.ldexp(series.view(np.float64).reshape(-1, 2), q * spans[:, None]).view(np.complex128)[:, 0]
        table = np.exp(nodes)
        for span, tight, first, stop in zip(range(1, k + 1), masks, rows, rows[1:]):
            gaps = np.where(tight, 1.0, nodes[:, span:] - nodes[:, :-span])
            table = (table[:, 1:] - table[:, :-1]) / gaps
            if q:
                table = np.ldexp(table.view(np.float64), q).view(np.complex128)
            if stop > first:
                table[tight] = series[first:stop]
        out = math.ldexp(t, -q) ** k * table[:, 0]
    if not np.isfinite(out.view(np.float64)).all():
        raise Overflow(f"ordered time integral leaves the doubles at t = {t}")
    return out


def f_mn(w1: float, w2: float, w3: float, t: float) -> complex:
    """Third-order ordered time integral of three oscillating factors.

    Returns the nested integral over t >= s1 >= s2 >= s3 >= 0 of
    exp(i w1 s1) exp(i w2 s2) exp(i w3 s3). Every frequency-coincidence
    pattern is a removable singularity of the naive antiderivative; the
    divided-difference evaluation is uniformly accurate across them.
    """
    for name, v in (("w1", w1), ("w2", w2), ("w3", w3), ("t", t)):
        finite_number(name, v)
    return complex(_ordered_exponential_integral([[w1, w2, w3]], t)[0])


def _third_order_integrals(energies: np.ndarray, i: int, f2: np.ndarray, t: float) -> np.ndarray:
    """f_mn(w_im, w_mn, w_ni, t) of every level pair (m, n) from the
    second-order values f2[m], whose nodes {0, x_m, 0}, x_m = i t w_im, lack
    one of the pair's {0, x_m, x_n, 0}: where |x_m - x_n| > _CLUSTER_DIAMETER
    the pair is (f2[m] - f2[n]) / (i (w_im - w_in)), in real arithmetic, and
    the other pairs (m = n among them) run the batch on their own rows."""
    w_im = energies[i] - energies
    gap = w_im[:, None] - w_im[None, :]
    tight = np.abs(t * gap) <= _CLUSTER_DIAMETER
    gap[tight] = 1.0
    f3 = np.empty(gap.shape, dtype=np.complex128)
    f3.real = (f2.imag[:, None] - f2.imag[None, :]) / gap
    f3.imag = (f2.real[None, :] - f2.real[:, None]) / gap
    m, n = np.nonzero(tight)
    freqs = np.stack([w_im[m], energies[m] - energies[n], energies[n] - energies[i]], axis=1)
    f3[m, n] = _ordered_exponential_integral(freqs, t)
    return f3


def survival_amplitude(
    H0: Observable,
    V: Observable,
    i: int,
    t: float,
    order: int = 3,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> complex:
    """Interaction-picture amplitude to remain in unperturbed level i.

    Sums the time-ordered series for <i|U_I(t, 0)|i> through the requested
    order in V:

    - order 1 adds -i t V_ii,
    - order 2 adds -sum_m V_im V_mi F2(w_im, w_mi),
    - order 3 adds i sum_{m,n} V_im V_mn V_ni f_mn(w_im, w_mn, w_ni, t),

    with w_pq the level spacing E_p - E_q and F2 the two-fold analogue of
    f_mn. The truncation error is O((t ||V||)^(order+1)).

    Order 3 takes each level pair wider than _CLUSTER_DIAMETER from two F2
    values (_third_order_integrals). Each term product rounds every real
    operation on its own, so the value does not depend on SIMD dispatch.

    Raises
    ------
    InvalidArgument
        If H0 is not diagonal (its basis defines the levels) or order is
        outside 0..3.
    Overflow
        If an ordered integral or the amplitude is not a finite double.
    """
    if integer("order", order) not in (0, 1, 2, 3):
        raise InvalidArgument(f"order must be in 0..3, got {order}")
    t = finite_number("time", t)
    h0 = H0.entries
    off = np.abs(h0 - np.diag(np.diagonal(h0))).max()
    if off > tol.tol_zero:
        raise InvalidArgument(f"H0 must be diagonal; max off-diagonal entry is {off:.3e}")
    if not 0 <= integer("level index", i) < H0.dim:
        raise InvalidArgument(f"level index {i} out of range for dim {H0.dim}")
    if V.dim != H0.dim:
        raise InvalidArgument(f"V dim {V.dim} does not match H0 dim {H0.dim}")
    energies = np.real(np.diagonal(h0))
    v = V.entries
    amp = 1.0 + 0.0j
    w_im = energies[i] - energies
    with np.errstate(over="ignore", invalid="ignore"):
        if order >= 1:
            amp += -1j * t * v[i, i]
        if order >= 2:
            f2 = _ordered_exponential_integral(np.stack([w_im, -w_im], axis=1), t)
            amp -= _kernels.fsum_complex(_complex_product(_complex_product(v[i, :], v[:, i]), f2))
        if order >= 3:
            f3 = _third_order_integrals(energies, i, f2, t)
            terms = _complex_product(_complex_product(v[i, :, None], v), v[None, :, i])
            amp += 1j * _kernels.fsum_complex(_complex_product(terms, f3))
    if not cmath.isfinite(amp):
        raise Overflow(f"survival amplitude leaves the doubles at t = {t}")
    return amp
