"""Discretized Hilbert-space curves, the (generalized) connection, continuous
phases, null-curve construction, and holonomy loop integrals.

A curve is stored as parameter samples plus one state per sample, never as a
closure, so it can be serialized and replayed. The connection along a curve
is A_O(s) = Im(<psi|O|d_s psi> / <psi|O|psi>), sampled with second-order
central differences (first-order one-sided at the two ends) and integrated
with the trapezoid rule. The continuous phase adds the endpoint term
Arg(<psi(L)|O|psi(0)> / <psi(L)|psi(L)>) to that integral. An observable of
None is the identity. Up to the discretization error, the phase is unchanged
by a smooth re-phasing of the states and by a monotone change of parameter.

:func:`connection_samples` is the one path to the connection of a
:class:`ParamCurve`: it runs the kernel once per curve and returns the
samples with their integral and their smallest denominator. :func:`curve_phase`
takes such a result to reuse it.

The holonomies close their loops with O null segments (N. Mukunda and
R. Simon, Ann. Phys. 228, 205 (1993)), and the ``null-curve`` command
samples one; neither forms a segment's coefficients or states, nor runs the
kernel on it. With r = (1 - f, f), f = x / tau, D = diag(1, e^{i theta}) and
G the Gram matrix <b_j|O|b_k> of [A; B], the segment's state is n = e^{-i theta f} r D [A; B], so
<n_l|O|n_m> = e^{-i theta (f_m - f_l)} r_l^T P r_m with P = D^* G D, which
theta = Arg G10 makes real up to rounding. On (M,) real arrays,
<n|O|n> = r^T Re(P) r, the norms are the same form of <b_j|b_k>, and the
forward link is e^{-i theta df} (r_l^T Re(P) r_{l+1} + i Im(P01) df), the
backward link its conjugate. Their imaginary parts, each divided by its own
row's <n|O|n>, feed the kernel's stencil and the tail shared with
:func:`connection_samples`, :func:`_sample_connection`.

Null curves make the phase a pure loop integral: along them the connection
integral alone reproduces the relative phase of the endpoints, so closing an
open curve with one contributes no extra phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InvalidArgument, OrthogonalEndpoints, Overflow, SingularConnection, UndefinedPhase
from .hilbert import (
    DEFAULT_TOLS,
    Observable,
    StateVector,
    ToleranceConfig,
    finite_array,
    finite_number,
    integer,
    observable_entries,
    principal_arg,
    wrap_angle,
)
from .phase import PhaseResult

__all__ = [
    "ParamCurve",
    "ConnectionSamples",
    "connection_samples",
    "curve_phase",
    "geodesic_null_curve",
    "o_null_curve",
    "loop_holonomy",
    "triangle_holonomy",
]


def _refuse_vanishing_norms(norms: np.ndarray, tol: ToleranceConfig) -> None:
    """InvalidArgument naming the first sample whose state has norm^2 <= tol_zero."""
    if np.any(norms <= tol.tol_zero):
        raise InvalidArgument(f"curve state at sample {int(np.argmax(norms <= tol.tol_zero))} has vanishing norm")


class ParamCurve:
    """An ordered discretization of a curve of rays.

    Parameters
    ----------
    params : array_like of float
        Strictly increasing parameter samples s_0 < ... < s_{M-1}, M >= 3.
    states : array_like of complex, shape (M, dim)
        One nonzero state per sample.
    """

    __slots__ = ("_params", "_states")

    def __init__(self, params, states, tol: ToleranceConfig = DEFAULT_TOLS):
        p = finite_array(params, 1, "params", np.float64)
        s = finite_array(states, 2, "states")
        if p.shape[0] != s.shape[0]:
            raise InvalidArgument(
                f"params shape {p.shape} and states shape {s.shape} are inconsistent"
            )
        if p.shape[0] < 3:
            raise InvalidArgument(f"curve needs at least 3 samples, got {p.shape[0]}")
        if not np.all(p[1:] > p[:-1]):
            raise InvalidArgument("params must be strictly increasing")
        parts = s.view(np.float64)  # (M, 2 dim): real and imaginary parts
        with np.errstate(over="ignore", invalid="ignore"):  # a norm past the doubles does not vanish
            norms = np.einsum("ld,ld->l", parts, parts)
        _refuse_vanishing_norms(norms, tol)
        self._params = p
        self._states = s

    @property
    def params(self) -> np.ndarray:
        return self._params

    @property
    def states(self) -> np.ndarray:
        return self._states

    @property
    def sample_count(self) -> int:
        return self._params.shape[0]

    @property
    def dim(self) -> int:
        return self._states.shape[1]

    def row(self, index: int) -> np.ndarray:
        """The state at one sample; a negative index counts from the end."""
        m = self.sample_count
        if not -m <= integer("sample index", index) < m:
            raise InvalidArgument(f"sample index {index} out of range for {m} samples")
        return self._states[index]

    def state(self, index: int) -> StateVector:
        return StateVector(self.row(index))

    def __repr__(self) -> str:
        return f"ParamCurve(samples={self.sample_count}, dim={self.dim})"


@dataclass(frozen=True)
class ConnectionSamples:
    """Sampled connection values along a curve.

    ``integral`` is the trapezoid integral of ``values`` over ``params``, and
    ``min_modulus`` the smallest |<psi|O|psi>| among the directly evaluated
    samples. ``extrapolated`` lists endpoint sample indices whose denominator
    vanished and whose value is therefore a one-sided limit taken from the
    interior, not a direct evaluation.
    """

    params: np.ndarray
    values: np.ndarray
    integral: float
    min_modulus: float
    extrapolated: tuple[int, ...] = ()


def connection_samples(
    curve: ParamCurve,
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> ConnectionSamples:
    """Sample A_O(s) = Im(<psi|O|D psi> / <psi|O|psi>) along the curve.

    This is the one place the connection kernel runs for a curve. A vanishing
    denominator at an interior sample is an error. At an endpoint sample
    only, the value is filled by a one-sided linear extrapolation from the
    two nearest interior samples (the limit exists for the constructed null
    curves, where the interior connection is constant) and the index is
    flagged in the result.

    Raises
    ------
    SingularConnection
        Naming the first interior sample where |<psi|O|psi>| <= tol_zero.
    Overflow
        If the integral is not finite.
    """
    terms = _kernels.connection_terms(curve.params, curve.states, observable_entries(O, curve.dim))
    return _sample_connection(curve.params, *terms, tol)


def _sample_connection(
    params: np.ndarray, values: np.ndarray, moduli: np.ndarray, tol: ToleranceConfig
) -> ConnectionSamples:
    """The tail of :func:`connection_samples`, shared with the null segments
    of the holonomies: from the values Im(num / den) at the samples and the
    moduli |den| of their denominators, the interior check, the endpoint
    extrapolation, the integral and its overflow check."""
    singular = moduli <= tol.tol_zero
    m = params.shape[0]
    interior_bad = np.flatnonzero(singular[1 : m - 1])
    if interior_bad.size:
        l = int(interior_bad[0]) + 1
        raise SingularConnection(
            f"connection denominator vanishes at interior sample {l} "
            f"(|<psi|O|psi>| = {moduli[l]:.3e})",
            sample_index=l,
        )
    extrapolated = []
    # an interior vanishing denominator has raised, so only an endpoint
    # divided by zero, and its value is extrapolated; a non-finite integral
    # is refused below
    with np.errstate(invalid="ignore", over="ignore"):
        for end, first, second in ((0, 1, 2), (m - 1, m - 2, m - 3)):
            if not singular[end]:
                continue
            extrapolated.append(end)
            p = params
            if singular[second]:
                # both ends singular on an M=3 curve: only the middle sample remains
                values[end] = values[first]
            else:
                slope = (values[second] - values[first]) / (p[second] - p[first])
                values[end] = values[first] + slope * (p[end] - p[first])
        # trapezoid rule with a deterministic, correctly rounded accumulation
        integral = _kernels.fsum(0.5 * (values[1:] + values[:-1]) * np.diff(params))
    values.setflags(write=False)
    if not math.isfinite(integral):
        raise Overflow(f"the connection integral is {integral}: the connection overflows a double")
    direct = moduli[int(singular[0]) : m - int(singular[-1])]  # only an endpoint can be singular here
    return ConnectionSamples(params, values, integral, float(direct.min()), tuple(sorted(extrapolated)))


def curve_phase(
    curve: ParamCurve,
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
    samples: ConnectionSamples | None = None,
) -> PhaseResult:
    """Continuous geometric phase of an open curve.

    value = wrap(Arg(<psi(L)|O|psi(0)> / <psi(L)|psi(L)>) + integral of A_O).
    For dense sampling with O = None this converges to the chain phase over
    the same samples plus the closing link. ``samples``, a
    :func:`connection_samples` result for the same curve, observable and
    tolerances, is reused when given, so the connection runs once.

    Raises
    ------
    UndefinedPhase
        If the endpoint link amplitude vanishes.
    SingularConnection
        Propagated from the connection sampling.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports inf or nan
        last = curve.row(-1)
        endpoint_amp = complex(_kernels.bra_rows(last, observable_entries(O, curve.dim)) @ curve.row(0))
    try:
        modulus = abs(endpoint_amp)
    except OverflowError:  # finite parts whose modulus exceeds a double
        modulus = math.inf
    if modulus <= tol.tol_zero:
        raise UndefinedPhase(
            f"curve phase undefined: endpoint link |<psi(L)|O|psi(0)>| = "
            f"{modulus:.3e} <= tol_zero"
        )
    endpoint_arg = principal_arg(endpoint_amp / np.vdot(last, last).real)
    if samples is None:
        samples = connection_samples(curve, O, tol)
    min_mod = min(modulus, samples.min_modulus)
    return PhaseResult(wrap_angle(endpoint_arg + samples.integral), min_mod, curve.sample_count)


def geodesic_null_curve(
    A: StateVector,
    B: StateVector,
    tau: float = 1.0,
    M: int = 1001,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> ParamCurve:
    """The great-circle null curve between two unit states.

    With theta = Arg<A|B>, the construction is
    eps(x) = (e^{i theta x/tau} / sin tau) (sin(tau - x) A + e^{-i theta} sin(x) B),
    which starts at A, ends at B, and carries zero total phase: the identity
    connection integral along it equals Arg<A|B> and cancels the endpoint
    term exactly.

    Parameters
    ----------
    A, B : StateVector
        Unit-normalized endpoints.
    tau : float
        Parameter length, in (0, pi) so sin(tau) != 0.
    M : int
        Number of uniform samples, >= 3.

    Raises
    ------
    OrthogonalEndpoints
        If |<B|A>| <= tol_zero: no geodesic phase reference exists.
    """
    if not 0.0 < finite_number("tau", tau) < math.pi:
        raise InvalidArgument(f"tau must lie in (0, pi), got {tau}")
    if integer("M", M) < 3:
        raise InvalidArgument(f"M must be >= 3, got {M}")
    for name, s in (("A", A), ("B", B)):
        if abs(s.norm_sq - 1.0) > 1e-9:
            raise InvalidArgument(f"{name} must be unit-normalized (norm^2 = {s.norm_sq:.12f})")
    overlap = complex(np.vdot(A.components, B.components))
    if abs(overlap) <= tol.tol_zero:
        raise OrthogonalEndpoints("geodesic undefined between orthogonal states")
    theta = principal_arg(overlap)
    x = np.linspace(0.0, tau, M)
    gauge = np.exp(1j * theta * x / tau) / math.sin(tau)
    coeffs = np.stack((gauge * np.sin(tau - x), gauge * np.exp(-1j * theta) * np.sin(x)), axis=1)
    return ParamCurve(x, coeffs @ np.stack((A.components, B.components)), tol=tol)


def o_null_curve(
    A: StateVector,
    B: StateVector,
    O: Observable | None = None,
    tau: float = 1.0,
    M: int = 1001,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> ParamCurve:
    """The straight-line O null curve between two states.

    With theta = Arg(<B|O|A> / <B|B>), the construction is
    n(x) = e^{-i theta x/tau} ((1 - x/tau) A + (x/tau) e^{i theta} B).
    Along it the generalized connection is constant, its integral equals
    Arg(<A|O|B> / <B|B>), and curve_phase(result, O) vanishes up to
    discretization error.

    The denominator <n|O|n> may vanish exactly at the endpoints when A and B
    are orthogonal (it stays bounded away from zero in the interior for
    positive-definite O); that case is permitted and handled downstream by
    one-sided limits. A vanishing interior denominator is an error.

    Raises
    ------
    Overflow
        If <n|O|n> or a state n(x) at a sample exceeds a double.
    UndefinedPhase
        If |<A|O|B>| <= tol_zero.
    SingularConnection
        If the interpolation passes through an interior zero of <n|O|n>,
        either at a sample or as a sign change between adjacent samples,
        naming the nearest sample.
    """
    segment = _null_segment(A, B, O, tau, M, tol)
    return ParamCurve(segment.x, _null_coefficients(segment.frac, segment.theta) @ segment.span, tol=tol)


def _null_coefficients(frac: np.ndarray, theta: float) -> np.ndarray:
    """The (M, 2) coefficients e^{-i theta f} (1 - f, f e^{i theta}) of a null curve over [A; B]."""
    gauge = np.exp(-1j * theta * frac)
    return np.stack((gauge * (1.0 - frac), gauge * frac * np.exp(1j * theta)), axis=1)


class _NullSegment(NamedTuple):
    """A checked null segment: its samples x and f = x / tau, span [A; B] and
    theta, the real form (P00, P01 + P10, P11) and the Im P01 of the
    Hermitian part of P = D^* G D, its denominators den = <n|O|n>, and
    |<B|O|A>|, the modulus of its endpoint link."""

    x: np.ndarray
    frac: np.ndarray
    span: np.ndarray
    theta: float
    form: tuple[float, float, float]
    skew: float
    den: np.ndarray
    modulus: float


def _quadratic(form: tuple[float, float, float], products: tuple) -> np.ndarray:
    """P00 g^2 + (P01 + P10) g f + P11 f^2 from the products (g^2, g f, f^2) at every sample."""
    (p00, cross, p11), (gg, gf, ff) = form, products
    return p00 * gg + cross * gf + p11 * ff


def _hermitian_form(gram: np.ndarray, theta: float) -> tuple[tuple[float, float, float], float]:
    """For P = D^* G D with D = diag(1, e^{i theta}), the real form
    (P00, P01 + P10, P11) and Im P01 of the Hermitian part of P. With theta
    = Arg G10, P is real up to rounding, and Im P01 is that rounding."""
    (g00, g01), (g10, g11) = gram.tolist()
    rot = complex(math.cos(theta), math.sin(theta))
    p01, p10 = g01 * rot, g10 * rot.conjugate()
    return (g00.real, p01.real + p10.real, g11.real), 0.5 * (p01.imag - p10.imag)


def _null_segment(
    A: StateVector, B: StateVector, O: Observable | None, tau: float, M: int, tol: ToleranceConfig
) -> _NullSegment:
    """Every check of :func:`o_null_curve`, made in its order on the real
    quadratics of the module docstring: <n|O|n> = r^T Re(P) r, and the norms
    are the same form of the Gram matrix <b_j|b_k>. Coefficients and states
    are formed only where a part of A or B is past DBL_MAX / 4. The samples
    are finite and |r| <= 1, so of the checks a :class:`ParamCurve` makes only
    two can fail; they are made here, in its order: increasing samples (a
    small tau fails it) and nonvanishing norms."""
    if integer("M", M) < 3:
        raise InvalidArgument(f"M must be >= 3, got {M}")
    finite_number("tau", tau, positive=True)
    if A.dim != B.dim:
        raise InvalidArgument(f"state dims differ: {A.dim} vs {B.dim}")
    obs = observable_entries(O, A.dim)
    span = np.stack((A.components, B.components))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan ones are reported below
        gram = _kernels.bra_rows(span, obs) @ span.T
        link = complex(gram[1, 0])  # <B|O|A>
        modulus = float(np.abs(link))  # abs(link) would raise OverflowError past the doubles
        theta = principal_arg(link / B.norm_sq)
        x = np.linspace(0.0, tau, M)
        frac = x / tau
        rest = 1.0 - frac
        products = (rest * rest, rest * frac, frac * frac)
        form, skew = _hermitian_form(gram, theta)
        den = _quadratic(form, products)
        # |c_A|, |c_B| <= 1 bound each part of a state by 2 sqrt(2) max|parts of
        # A, B|; only past DBL_MAX / 4 are the states formed and checked
        finite = (np.abs(span.view(np.float64)).max() < np.finfo(np.float64).max / 4
                  or np.isfinite((_null_coefficients(frac, theta) @ span).view(np.float64)).all())
    if not (np.isfinite(den).all() and finite):
        raise Overflow("null curve undefined: <n|O|n> or a curve state n overflows a double")
    if modulus <= tol.tol_zero:
        raise UndefinedPhase(
            f"null curve undefined: |<A|O|B>| = {modulus:.3e} <= tol_zero"
        )
    interior_bad = np.flatnonzero(np.abs(den[1 : M - 1]) <= tol.tol_zero)
    if interior_bad.size:
        l = int(interior_bad[0]) + 1
        raise SingularConnection(
            f"<n|O|n> vanishes at interior sample {l} of the null interpolation",
            sample_index=l,
        )
    # a sign change between samples means the interpolation crossed a zero
    # that the grid did not land on; integrating through it would be silent
    # garbage, so report the sample nearest the crossing instead
    crossings = np.flatnonzero(np.sign(den[:-1]) * np.sign(den[1:]) < 0.0)
    if crossings.size:
        i = int(crossings[0])
        l = i if abs(den[i]) < abs(den[i + 1]) else i + 1
        raise SingularConnection(
            f"<n|O|n> changes sign between samples {i} and {i + 1} of the null interpolation",
            sample_index=l,
        )
    if not np.all(x[1:] > x[:-1]):
        raise InvalidArgument("params must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past the doubles does not vanish
        _refuse_vanishing_norms(_quadratic(_hermitian_form(span.conj() @ span.T, theta)[0], products), tol)
    return _NullSegment(x, frac, span, theta, form, skew, den, modulus)


def _segment_samples(segment: _NullSegment, tol: ToleranceConfig) -> ConnectionSamples:
    """The connection of a checked null segment, from its closed-form links.

    Im <n_l|O|n_{l+1}> = cos(theta df_l) Im P01 df_l - sin(theta df_l)
    r_l^T Re(P) r_{l+1}, and the backward link is its conjugate. The form
    is taken between the two samples: forming it from den_l + den_{l+1}
    cancels where den spans many orders of magnitude. Each link is divided
    by its own row's den and fed to the kernel's one stencil, as a curve's
    link sandwiches are.
    """
    den, frac = segment.den, segment.frac
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # see _sample_connection
        df = np.diff(frac)
        phase = segment.theta * df
        rest = 1.0 - frac
        ends = (rest[:-1] * rest[1:], 0.5 * (rest[:-1] * frac[1:] + frac[:-1] * rest[1:]), frac[:-1] * frac[1:])
        links = segment.skew * np.cos(phase) * df - np.sin(phase) * _quadratic(segment.form, ends)
        values = _kernels.stencil(segment.x, -links / den[1:], links / den[:-1])
    return _sample_connection(segment.x, values, np.abs(den), tol)


def loop_holonomy(
    open_curve: ParamCurve,
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> PhaseResult:
    """Holonomy of the loop formed by closing an open curve with an O null curve.

    The closing segment runs from the final state back to the initial one; it
    contributes exactly the endpoint term of the open curve, so the loop
    integral of the connection equals curve_phase(open_curve, O).

    Raises
    ------
    UndefinedPhase, SingularConnection
        Propagated from the closing-curve construction or the sampling.
    """
    M = open_curve.sample_count
    closing = _null_segment(open_curve.state(-1), open_curve.state(0), O, 1.0, M, tol)
    open_part = connection_samples(open_curve, O, tol)
    closing_part = _segment_samples(closing, tol)
    value = wrap_angle(open_part.integral + closing_part.integral)
    min_mod = min(open_part.min_modulus, closing_part.min_modulus)
    return PhaseResult(value, min_mod, 2 * M)


def triangle_holonomy(
    psi1: StateVector,
    psi2: StateVector,
    psi3: StateVector,
    O: Observable | None = None,
    M: int = 1001,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> PhaseResult:
    """Holonomy of the geodesic triangle of O null curves through three states.

    The sum of the three connection integrals along the null segments
    psi1 -> psi2 -> psi3 -> psi1 equals the three-state chain phase.
    """
    vertices, M = (psi1, psi2, psi3), integer("M", M)
    total = 0.0
    min_mod = math.inf
    for a in range(3):
        segment = _null_segment(vertices[a], vertices[(a + 1) % 3], O, 1.0, M, tol)
        samples = _segment_samples(segment, tol)
        total += samples.integral
        min_mod = min(min_mod, samples.min_modulus)
    return PhaseResult(wrap_angle(total), min_mod, 3 * M)

