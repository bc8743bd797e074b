"""Born-series scattering on a finite momentum grid, where every sum is
literal and exactly checkable, plus a rank-1 separable continuum model whose
T-matrix is exact and therefore supports an honest optical-theorem check.

Amplitude convention: f = -4 pi^2 m <out|V|psi+>, so each Born term is the
corresponding matrix-element chain scaled by -4 pi^2 m. The grid propagator
keeps a finite +i epsilon regulator; the separable model takes the
epsilon -> 0+ limit analytically (principal value plus on-shell pole term).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleAtEnergy, QuadratureNotConverged, SingularKernel
from .hilbert import DEFAULT_TOLS, Observable, StateVector, ToleranceConfig
from .perturbation import PhaseTermTable, _closed_triples

__all__ = [
    "GridModel",
    "SeparableModel",
    "BornReport",
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
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("momentum labels must be distinct")
        e = np.asarray(energies, dtype=np.float64)
        if e.ndim != 1 or e.shape[0] != len(labels):
            raise ValueError(
                f"{len(labels)} labels but energies shape {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("energies contain non-finite entries")
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError(f"mass must be positive, got {mass}")
        if V.dim != len(labels):
            raise ValueError(f"V dim {V.dim} does not match grid size {len(labels)}")
        if not (math.isfinite(greens_epsilon) and greens_epsilon > 0.0):
            raise ValueError(f"greens_epsilon must be positive, got {greens_epsilon}")
        e.setflags(write=False)
        self._labels = labels
        self._energies = e
        self._mass = float(mass)
        self._v = V
        self._epsilon = float(greens_epsilon)

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
        for name, v in (("coupling", self.coupling), ("beta", self.beta), ("mass", self.mass)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")


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


def _green_diagonal(model: GridModel, i: int) -> np.ndarray:
    """Propagator diagonal 1 / (E_i - E_p + i epsilon)."""
    return 1.0 / (model.energies[i] - model.energies + 1j * model.greens_epsilon)


def _scattering_kernel(model: GridModel, i: int) -> np.ndarray:
    """The Lippmann-Schwinger matrix 1 - G0 V at the energy of grid point i."""
    return np.eye(model.size) - _green_diagonal(model, i)[:, None] * model.V.entries


def _check_index(model: GridModel, i: int) -> None:
    if not 0 <= i < model.size:
        raise ValueError(f"momentum index {i} out of range for grid size {model.size}")


def born_spectral_radius(model: GridModel, i: int) -> float:
    """Largest eigenvalue modulus of G0 V at the energy of grid point i."""
    _check_index(model, i)
    kernel = _green_diagonal(model, i)[:, None] * model.V.entries
    return float(np.abs(np.linalg.eigvals(kernel)).max())


def kernel_condition_number(model: GridModel, i: int) -> float:
    """Condition number of the linear system (1 - G0 V) solved for |psi+>."""
    _check_index(model, i)
    return float(np.linalg.cond(_scattering_kernel(model, i)))


def lippmann_schwinger_solve(
    model: GridModel, i: int, tol: ToleranceConfig = DEFAULT_TOLS
) -> StateVector:
    """Exact scattering state |psi+> = |i> + G0 V |psi+> on the grid.

    Solves the finite linear system (1 - G0 V)|psi+> = |i> directly; Born
    iteration converges to this answer exactly when the spectral radius of
    G0 V is below one, but the solve does not require that.

    Raises
    ------
    SingularKernel
        If (1 - G0 V) is singular or numerically unusable (condition number
        above 1e14).
    """
    _check_index(model, i)
    kernel = _scattering_kernel(model, i)
    cond = np.linalg.cond(kernel)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularKernel(
            f"scattering kernel at grid point {i} has condition number {cond:.3e}"
        )
    rhs = np.zeros(model.size, dtype=np.complex128)
    rhs[i] = 1.0
    try:
        psi = np.linalg.solve(kernel, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKernel(f"scattering kernel at grid point {i} is singular") from exc
    return StateVector(psi)


def born_forward_amplitude(model: GridModel, i: int) -> BornReport:
    """Forward amplitude truncated after three Born terms.

    term0 = scale * <i|V|i>
    term1 = scale * <i|V G0 V|i>
    term2 = scale * <i|V G0 V G0 V|i>

    with scale = -4 pi^2 m. The V^3 term is the one whose grid expansion
    sum_{p,q} V_ip V_pq V_qi / ((E_i - E_p + ie)(E_i - E_q + ie)) carries
    the closed-triple phases tabulated by triple_product_phases.
    """
    _check_index(model, i)
    v = model.V.entries
    g = _green_diagonal(model, i)
    scale = -4.0 * math.pi**2 * model.mass
    row = v[i, :]
    col = v[:, i]
    t0 = complex(v[i, i])
    t1 = complex((row * g) @ col)
    t2 = complex((row * g) @ v @ (g * col))
    return BornReport(
        scale * t0, scale * t1, scale * t2, born_spectral_radius(model, i)
    )


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
    _check_index(model, i)
    v = model.V.entries
    den = model.energies[i] - model.energies + 1j * model.greens_epsilon
    return _closed_triples(v[i, :], v, v[:, i], den, np.arange(model.size), tol)


# Separable continuum model ------------------------------------------------

_PV_TOL = 1e-9
_PV_START_NODES = 64
_PV_MAX_NODES = 8192


def _subtracted_radial_integrand(p: np.ndarray, k: float, beta: float) -> np.ndarray:
    """(g(p) - g(k)) / (k^2 - p^2) for g(p) = p^2 / (p^2 + beta^2)^2, in closed form.

    The difference factors exactly, so the principal-value singularity is
    removed algebraically rather than numerically:
    (p^2 k^2 - beta^4) / ((p^2 + beta^2)^2 (k^2 + beta^2)^2).
    """
    return (p * p * k * k - beta**4) / ((p * p + beta**2) ** 2 * (k * k + beta**2) ** 2)


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per
    count; the doubling ladder below asks for at most eight counts."""
    x, wgt = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    wgt.setflags(write=False)
    return x, wgt


def _radial_principal_value(k: float, beta: float) -> float:
    """PV integral of g(p) / (k^2 - p^2) over p in (0, inf).

    The subtracted constant g(k) integrates to zero in principal value, so
    the integrand above is integrated with Gauss-Legendre under the map
    p = beta u / (1 - u), doubling the node count until two successive
    refinements agree to 1e-9.

    Raises
    ------
    QuadratureNotConverged
        If the integrand overflows (a non-finite sum can never settle) or
        the refinements still disagree at the node limit.
    """
    previous = None
    nodes = _PV_START_NODES
    while nodes <= _PV_MAX_NODES:
        x, wgt = _gauss_legendre(nodes)
        u = 0.5 * (x + 1.0)
        p = beta * u / (1.0 - u)
        jac = beta / (1.0 - u) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.sum(wgt * 0.5 * jac * _subtracted_radial_integrand(p, k, beta)))
        if not math.isfinite(value):
            raise QuadratureNotConverged(
                f"principal-value quadrature overflowed at k = {k}, beta = {beta}"
            )
        if previous is not None and abs(value - previous) < _PV_TOL:
            return value
        previous = value
        nodes *= 2
    raise QuadratureNotConverged(
        f"principal-value quadrature did not stabilize to {_PV_TOL} "
        f"within {_PV_MAX_NODES} nodes"
    )


def loop_integral(model: SeparableModel, k: float) -> complex:
    """The bubble integral I(E_k) = int d^3p |chi(p)|^2 / (E_k - p^2/2m + i0).

    Real part from the principal-value quadrature, imaginary part
    -4 pi^2 m k / (k^2 + beta^2)^2 attached analytically from the on-shell
    pole.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"on-shell momentum must be positive, got {k}")
    m, beta = model.mass, model.beta
    real = 8.0 * math.pi * m * _radial_principal_value(k, beta)
    imag = -4.0 * math.pi**2 * m * k / (k * k + beta**2) ** 2
    return complex(real, imag)


def separable_tmatrix(
    model: SeparableModel, k: float, tol: ToleranceConfig = DEFAULT_TOLS
) -> complex:
    """Exact on-shell forward amplitude of the rank-1 model.

    f(k) = -4 pi^2 m c chi(k)^2 / (1 - c I(E_k)) with c the coupling; the
    geometric expansion of the denominator reproduces the Born terms order
    by order in c.

    Raises
    ------
    PoleAtEnergy
        If 1 - c I(E_k) vanishes (a bound or virtual state sits at this
        energy).
    """
    loop = loop_integral(model, k)
    den = 1.0 - model.coupling * loop
    if abs(den) <= tol.tol_zero:
        raise PoleAtEnergy(f"T-matrix pole at k = {k}: |1 - coupling*I| = {abs(den):.3e}")
    chi_sq = 1.0 / (k * k + model.beta**2) ** 2
    return -4.0 * math.pi**2 * model.mass * model.coupling * chi_sq / den


def separable_born_amplitude(model: SeparableModel, k: float, order: int = 2) -> complex:
    """Born series of the separable amplitude truncated at the given power.

    Sums -4 pi^2 m chi(k)^2 * (c + c^2 I + ... + c^order I^(order-1)); the
    deviation from the exact amplitude is O(c^(order+1)). Raises ValueError
    if order < 1 or if the truncated series overflows a double.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    loop = loop_integral(model, k)
    chi_sq = 1.0 / (k * k + model.beta**2) ** 2
    c = model.coupling
    try:
        series = sum(c ** (j + 1) * loop**j for j in range(order))
    except OverflowError:
        series = complex(math.inf)
    amplitude = -4.0 * math.pi**2 * model.mass * chi_sq * series
    if not cmath.isfinite(amplitude):
        raise ValueError(f"the order-{order} Born amplitude overflows a double at coupling {c}")
    return amplitude


def optical_theorem_residual(
    model: SeparableModel,
    k: float,
    born_order: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> float:
    """|Im f(k) - k |f(k)|^2| for the exact or Born-truncated amplitude.

    The rank-1 amplitude is isotropic, so the total cross section is
    4 pi |f|^2 and unitarity demands Im f = k |f|^2. The exact T-matrix
    satisfies this to quadrature accuracy; a Born truncation at order n
    violates it at O(coupling^(n+1)). Raises ValueError if the residual
    overflows a double.
    """
    if born_order is None:
        f = separable_tmatrix(model, k, tol=tol)
    else:
        f = separable_born_amplitude(model, k, order=born_order)
    try:
        residual = abs(f.imag - k * abs(f) ** 2)
    except OverflowError:
        residual = math.inf
    if not math.isfinite(residual):
        source = "exact" if born_order is None else f"order-{born_order} Born"
        raise ValueError(f"the optical residual of the {source} amplitude overflows "
                         f"a double at coupling {model.coupling}")
    return residual
