"""Born-series scattering on a finite momentum grid, where every sum is
literal and exactly checkable, plus a rank-1 separable continuum model whose
T-matrix is exact and therefore supports an honest optical-theorem check.

Amplitude convention: f = -4 pi^2 m <out|V|psi+>, so each Born term is the
corresponding matrix-element chain scaled by -4 pi^2 m. The grid propagator
keeps a finite +i epsilon regulator; the separable model takes the
epsilon -> 0+ limit in closed form (principal value plus on-shell pole term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, Overflow, PoleAtEnergy, SingularKernel
from .hilbert import DEFAULT_TOLS, Observable, ToleranceConfig, finite_array, finite_number, integer
from .perturbation import PhaseTermTable, _closed_triples

__all__ = [
    "GridModel",
    "SeparableModel",
    "BornReport",
    "ScatteringState",
    "lippmann_schwinger_solve",
    "kernel_condition_number",
    "born_spectral_radius",
    "born_forward_amplitude",
    "triple_product_phases",
    "loop_integral",
    "separable_tmatrix",
    "separable_born_amplitude",
    "optical_theorem_residual",
]

_COND_LIMIT = 1e14


class GridModel:
    """A finite set of labeled momentum states with a potential between them.

    Parameters
    ----------
    labels : sequence of str
        One label per grid point, all distinct.
    energies : sequence of float
        Kinetic energy of each point.
    mass : float
        Particle mass (> 0), used only for the amplitude scale.
    V : Observable
        Potential matrix in this basis; dim must equal the grid size.
    greens_epsilon : float
        The +i epsilon regulator of the propagator, > 0.
    """

    __slots__ = ("_labels", "_energies", "_mass", "_v", "_epsilon")

    def __init__(self, labels, energies, mass: float, V: Observable, greens_epsilon: float = 1e-6):
        labels = tuple(labels)
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise InvalidArgument(f"momentum label {i} must be a str, got {label!r}")
        if len(set(labels)) != len(labels):
            raise InvalidArgument("momentum labels must be distinct")
        e = finite_array(energies, 1, "energies", np.float64)
        if e.shape[0] != len(labels):
            raise InvalidArgument(f"{len(labels)} labels but energies shape {e.shape}")
        self._mass = finite_number("mass", mass, positive=True)
        if V.dim != len(labels):
            raise InvalidArgument(f"V dim {V.dim} does not match grid size {len(labels)}")
        self._epsilon = finite_number("greens_epsilon", greens_epsilon, positive=True)
        self._labels = labels
        self._energies = e
        self._v = V

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def energies(self) -> np.ndarray:
        return self._energies

    @property
    def mass(self) -> float:
        return self._mass

    @property
    def V(self) -> Observable:
        return self._v

    @property
    def greens_epsilon(self) -> float:
        return self._epsilon

    @property
    def size(self) -> int:
        return len(self._labels)

    def index_of(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"unknown momentum label {label!r}") from None

    def __repr__(self) -> str:
        return f"GridModel(size={self.size}, mass={self._mass})"


@dataclass(frozen=True)
class SeparableModel:
    """Rank-1 potential coupling * |chi><chi| with form factor 1/(p^2 + beta^2)."""

    coupling: float
    beta: float
    mass: float

    def __post_init__(self):
        finite_number("coupling", self.coupling)
        finite_number("beta", self.beta, positive=True)
        finite_number("mass", self.mass, positive=True)


@dataclass(frozen=True)
class BornReport:
    """First three forward-amplitude terms, in amplitude units.

    term0, term1, term2 carry one, two, and three powers of V. The spectral
    radius of G0 V reports whether the full Born series would converge
    (< 1 yes, >= 1 no); the truncated terms themselves are always finite.
    """

    term0: complex
    term1: complex
    term2: complex
    spectral_radius: float

    @property
    def total(self) -> complex:
        return self.term0 + self.term1 + self.term2


@dataclass(frozen=True)
class ScatteringState:
    """|psi+>, a read-only complex array, with the condition number of
    (1 - G0 V) and the norm of the defect |psi+> - |i> - G0 V |psi+> of the
    solve that gave it. psi+ is not normalised; its norm may be small."""

    psi: np.ndarray
    condition_number: float
    defect: float


def _propagator(model: GridModel, i: int) -> np.ndarray:
    """E_i - E_p + i epsilon over the grid points p; inf past the doubles."""
    if not 0 <= integer("momentum index", i) < model.size:
        raise InvalidArgument(f"momentum index {i} out of range for grid size {model.size}")
    with np.errstate(over="ignore"):
        return model.energies[i] - model.energies + 1j * model.greens_epsilon


def _born_kernel(model: GridModel, i: int) -> tuple[np.ndarray, np.ndarray]:
    """G0 and G0 V at the energy of grid point i; Overflow if an entry of G0 V
    exceeds a double (an inf in G0 makes its row of G0 V inf or nan)."""
    with np.errstate(over="ignore", invalid="ignore"):
        green = 1.0 / _propagator(model, i)
        kernel = green[:, None] * model.V.entries
    if not np.isfinite(kernel).all():
        raise Overflow(f"scattering kernel at grid point {i} overflows a double")
    return green, kernel


def born_spectral_radius(model: GridModel, i: int) -> float:
    """Largest eigenvalue modulus of G0 V at the energy of grid point i."""
    return float(np.abs(np.linalg.eigvals(_born_kernel(model, i)[1])).max())


def kernel_condition_number(model: GridModel, i: int) -> float:
    """Condition number of the linear system (1 - G0 V) solved for |psi+>."""
    return float(np.linalg.cond(np.eye(model.size) - _born_kernel(model, i)[1]))


def lippmann_schwinger_solve(model: GridModel, i: int) -> ScatteringState:
    """Exact scattering state |psi+> = |i> + G0 V |psi+> on the grid.

    Solves the finite linear system (1 - G0 V)|psi+> = |i> directly; Born
    iteration converges to this answer exactly when the spectral radius of
    G0 V is below one, but the solve does not require that. The result
    carries the condition number of (1 - G0 V) and the solve's defect.

    Raises
    ------
    Overflow
        If an entry of G0 V exceeds a double.
    SingularKernel
        If (1 - G0 V) is singular or numerically unusable (condition number
        above 1e14).
    """
    green, born = _born_kernel(model, i)
    kernel = np.eye(model.size) - born
    cond = float(np.linalg.cond(kernel))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularKernel(f"scattering kernel at grid point {i} has condition number "
                             f"{cond:.3e}")
    rhs = np.zeros(model.size, dtype=np.complex128)
    rhs[i] = 1.0
    try:
        psi = np.linalg.solve(kernel, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKernel(f"scattering kernel at grid point {i} is singular") from exc
    defect = float(np.linalg.norm(psi - rhs - green * (model.V.entries @ psi)))
    psi.setflags(write=False)
    return ScatteringState(psi, cond, defect)


def born_forward_amplitude(model: GridModel, i: int) -> BornReport:
    """Forward amplitude truncated after three Born terms.

    term0 = scale * <i|V|i>
    term1 = scale * <i|V G0 V|i>
    term2 = scale * <i|V G0 V G0 V|i>

    with scale = -4 pi^2 m. The V^3 term is the one whose grid expansion
    sum_{p,q} V_ip V_pq V_qi / ((E_i - E_p + ie)(E_i - E_q + ie)) carries
    the closed-triple phases tabulated by triple_product_phases.
    """
    g = _born_kernel(model, i)[0]
    v = model.V.entries
    scale = -4.0 * math.pi**2 * model.mass
    row, col = v[i, :], v[:, i]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan terms reach the report emitter
        t1 = complex((row * g) @ col)
        t2 = complex((row * g) @ v @ (g * col))
    return BornReport(scale * complex(v[i, i]), scale * t1, scale * t2,
                      born_spectral_radius(model, i))


def triple_product_phases(
    model: GridModel, i: int, tol: ToleranceConfig = DEFAULT_TOLS
) -> PhaseTermTable:
    """Phase decomposition of the V^3 forward term at grid point i.

    One row per ordered pair (p, q), held in the columns k and l, with
    nonvanishing modulus |V_ip V_pq V_qi|; gamma_v is the wrapped Arg sum of
    the three elements and the denominator is the complex product
    (E_i - E_p + ie)(E_i - E_q + ie). Rows are p-major. Summing
    modulus * exp(i gamma_v) / denominator reproduces <i|V G0 V G0 V|i>.
    """
    denominators, v = _propagator(model, i), model.V.entries  # the index is checked before it indexes
    return _closed_triples(v[i, :], v, v[:, i], denominators, np.arange(model.size), tol)


# Separable continuum model ------------------------------------------------

def _part(mantissa: float, exponent: int) -> tuple[float, int]:
    """mantissa 2^exponent as (m, e) with 1/2 <= |m| < 1, or (m, 0) for a signed zero m."""
    m, shift = math.frexp(mantissa)
    return m, exponent + shift if m else 0


def _sum(p: tuple[float, int], q: tuple[float, int]) -> tuple[float, int]:
    """p + q of two (mantissa, exponent) parts, added at the larger exponent of a nonzero part."""
    top = max(p[1] if p[0] else q[1], q[1] if q[0] else p[1])
    return math.ldexp(p[0], p[1] - top) + math.ldexp(q[0], q[1] - top), top


class _Scaled:
    """A complex number whose real and imaginary parts are each a (mantissa,
    exponent) pair, so that neither over- or underflows and each keeps its
    digits however far below the other it lies. Its sums and products are
    Python's complex ones scaled by powers of two, so they have the same bits
    wherever that arithmetic stays normal; complex() of it raises
    OverflowError past the doubles."""

    __slots__ = ("real", "imag")

    def __init__(self, real: tuple[float, int], imag: tuple[float, int] = (0.0, 0)):
        self.real, self.imag = _part(*real), _part(*imag)

    def __add__(self, other: _Scaled) -> _Scaled:
        return _Scaled(_sum(self.real, other.real), _sum(self.imag, other.imag))

    def __mul__(self, other: _Scaled) -> _Scaled:
        (a, b), (c, d) = (self.real, self.imag), (other.real, other.imag)
        ac, bd, ad, bc = ((p[0] * q[0], p[1] + q[1]) for p, q in ((a, c), (b, d), (a, d), (b, c)))
        return _Scaled(_sum(ac, (-bd[0], bd[1])), _sum(ad, bc))

    def conjugate(self) -> _Scaled:
        return _Scaled(self.real, (-self.imag[0], self.imag[1]))

    def __complex__(self) -> complex:
        return complex(math.ldexp(*self.real), math.ldexp(*self.imag))


def _scaled_terms(model: SeparableModel, k: float, coupling: float):
    """The separable model's pieces at on-shell momentum k, with c the given
    coupling: u^2 = ((k - i beta) / s)^2, the first Born term -Q = -2 g / r^4,
    V = c I / u^2 and P = 2 beta / s^2, each a _Scaled value, with
    g = 2 pi^2 m c, r = hypot(k, beta) and s = 2^n the power of two just above
    max(k, beta). The powers of two of k, beta, m, c and s go to the
    exponents, so none of the pieces over- or underflows, and the imaginary
    part -2 k beta / s^2 of u^2 keeps its digits where k / s or beta / s
    leaves the normal doubles. Then c I = u^2 V.
    """
    finite_number("on-shell momentum", k, positive=True)
    (km, ke), (bm, be), (mm, me), (cm, ce) = (math.frexp(x) for x in (k, model.beta, model.mass, coupling))
    n = max(ke, be)
    a, b = math.ldexp(km, ke - n), math.ldexp(bm, be - n)  # both < 1, the larger >= 1/2
    rho4 = (a * a + b * b) ** 2  # (r / s)^4, in [1/16, 4)
    return (_Scaled(((a - b) * (a + b), 0), (-2.0 * km * bm, ke + be - 2 * n)),
            _Scaled((-4.0 * math.pi**2 * mm * cm / rho4, me + ce - 4 * n)),
            _Scaled((2.0 * math.pi**2 * mm * cm / (bm * rho4), me + ce - be - 2 * n)),
            _Scaled((2.0 * bm, be - 2 * n)))


def loop_integral(model: SeparableModel, k: float) -> complex:
    """The bubble integral I(E_k) = int d^3p |chi(p)|^2 / (E_k - p^2/2m + i0), in closed form.

    The two on-shell poles cancel in the principal value,

        PV int_0^inf p^2 dp / ((p^2 + beta^2)^2 (k^2 - p^2))
            = pi (k^2 - beta^2) / (4 beta (k^2 + beta^2)^2),

    and the on-shell pole term gives the imaginary part, so
    I(E_k) = 2 pi^2 m chi(k)^2 ((k^2 - beta^2) / beta - 2 i k) with
    chi(k) = 1 / (k^2 + beta^2) (Y. Yamaguchi, Phys. Rev. 95, 1628 (1954)).
    That is u^2 V of :func:`_scaled_terms` at unit coupling, which is how it
    is formed; Overflow where it is not a double.
    """
    u2, _, v, _ = _scaled_terms(model, k, 1.0)
    try:
        return complex(u2 * v)
    except OverflowError:
        raise Overflow(f"the bubble integral overflows a double at k = {k}") from None


def separable_tmatrix(
    model: SeparableModel, k: float, tol: ToleranceConfig = DEFAULT_TOLS
) -> complex:
    """Exact on-shell forward amplitude of the rank-1 model.

    f(k) = -4 pi^2 m c chi(k)^2 / (1 - c I(E_k)) with c the coupling; the
    geometric expansion of the denominator reproduces the Born terms order
    by order in c. As 1 - c I = 1 - g chi^2 (k - i beta)^2 / beta, the same
    amplitude is f = 2 beta / ((k - i beta)^2 - beta r^4 / g), which holds
    neither chi^2 nor c I. From the pieces of :func:`_scaled_terms`, with
    W = 1 / V, it is formed as -Q / (1 - u^2 V) where |V| <= 1 and as
    P / (u^2 - W) elsewhere, so it is found wherever it is a double.

    Raises
    ------
    PoleAtEnergy
        If |1 - c I(E_k)| <= tol_zero (a bound or virtual state sits at
        this energy).
    Overflow
        If the amplitude is not a finite double.
    """
    u2, first, v, p = _scaled_terms(model, k, model.coupling)
    vm, ve = v.real
    if abs(math.ldexp(vm, min(ve, 2))) <= 1.0:  # d = 1 - c I = 1 - u^2 V
        d, num, w = _Scaled((1.0, 0)) + u2 * _Scaled((-vm, ve)), first, 1.0
    else:  # d = (1 - c I) / -V = u^2 - W
        d, num, w = u2 + _Scaled((-1.0 / vm, -ve)), p, math.ldexp(1.0 / vm, -ve)
    z = complex(d)  # each part of d is below 2 in size
    size = math.hypot(z.real, z.imag)  # |d|
    pole = size / abs(w) if w else math.inf  # |1 - c I|
    if pole <= tol.tol_zero:
        raise PoleAtEnergy(f"T-matrix pole at k = {k}: |1 - coupling*I| = {pole:.3e}")
    # f = num / d = num conj(d) / |d|^2, each part divided by |d| twice
    (nm, ne), (dr, dre), (di, die) = num.real, d.real, d.imag
    try:
        return complex(_Scaled((nm * (dr / size) / size, ne + dre), (-nm * (di / size) / size, ne + die)))
    except OverflowError:
        raise Overflow(f"the exact amplitude overflows a double at coupling {model.coupling}") from None


def _born_series(model: SeparableModel, k: float, order: int) -> tuple[_Scaled, _Scaled, _Scaled]:
    """-Q, 1 + x + ... + x^(order-1) and x^order for x = c I, by doubling over
    the bits of order in O(log order) products; InvalidArgument if order < 1."""
    if integer("order", order) < 1:
        raise InvalidArgument(f"order must be >= 1, got {order}")
    u2, first, v, _ = _scaled_terms(model, k, model.coupling)
    x = u2 * v
    # series = 1 + x + ... + x^(m-1) and power = x^m, from m = 1 up to m = order:
    # doubling m adds x^m times the series, a set bit then adds x^(2m)
    series, power = _Scaled((1.0, 0)), x
    for bit in bin(order)[3:]:
        series, power = series + power * series, power * power
        if bit == "1":
            series, power = series + power, power * x
    return first, series, power


def separable_born_amplitude(model: SeparableModel, k: float, order: int = 2) -> complex:
    """Born series of the separable amplitude truncated at the given power.

    Sums -4 pi^2 m chi(k)^2 * (c + c^2 I + ... + c^order I^(order-1)), that
    is -Q (1 + x + ... + x^(order-1)) with x = c I, by :func:`_born_series`;
    the deviation from the exact amplitude is O(c^(order+1)). Raises
    InvalidArgument if order < 1, Overflow if the amplitude overflows a
    double.
    """
    first, series, _ = _born_series(model, k, order)
    try:
        return complex(first * series)
    except OverflowError:
        raise Overflow(f"the order-{order} Born amplitude overflows a double "
                       f"at coupling {model.coupling}") from None


def _born_error(model: SeparableModel, k: float, order: int, amplitude: complex) -> float:
    """|f - f_n| of the exact amplitude f and its order-n Born truncation f_n,
    formed as |f x^n| with x = c I, since f_n = f (1 - x^n): no two nearly
    equal amplitudes are subtracted. Overflow where it is not a double."""
    power = _born_series(model, k, order)[2]
    try:
        return abs(complex(power * _Scaled((amplitude.real, 0), (amplitude.imag, 0))))
    except OverflowError:
        raise Overflow(f"the order-{order} Born error overflows a double at coupling {model.coupling}") from None


def optical_theorem_residual(
    model: SeparableModel,
    k: float,
    born_order: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> float:
    """|Im f(k) - k |f(k)|^2| for the exact or Born-truncated amplitude.

    The rank-1 amplitude is isotropic, so the total cross section is
    4 pi |f|^2 and unitarity demands Im f = k |f|^2. The exact T-matrix
    satisfies this to roundoff; its residual is formed as
    |f| |Im f / |f| - k |f||, so that |f|^2 never overflows alone. A Born
    truncation f_n = -Q S, S = 1 + x + ... + x^(n-1), violates it at
    O(coupling^(n+1)). As k Q = -Im x and S (1 - x) = 1 - x^n, its residual
    is |Im(conj(f_n) x^n)|, which is how it is formed: the difference of
    Im f_n and k |f_n|^2 would cancel all but the digits of the truncation.
    Raises Overflow if the residual overflows a double.
    """
    if born_order is None:
        f = separable_tmatrix(model, k, tol=tol)
        modulus = math.hypot(f.real, f.imag)  # inf where abs(f) would raise
        residual = modulus * abs(f.imag / modulus - k * modulus) if modulus else 0.0
    else:
        first, series, power = _born_series(model, k, born_order)
        try:
            residual = abs(math.ldexp(*((first * series).conjugate() * power).imag))
        except OverflowError:
            residual = math.inf
    if not math.isfinite(residual):
        source = "exact" if born_order is None else f"order-{born_order} Born"
        raise Overflow(f"the optical residual of the {source} amplitude overflows "
                       f"a double at coupling {model.coupling}")
    return residual
