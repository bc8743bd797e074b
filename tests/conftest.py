"""Shared seeded generators and independent oracles for the test suite.

Oracle rule: every numeric expectation is either a closed form checked by
hand, an independent recomputation through a different code path (plain
Python loops, scipy quadrature, dense diagonalization), or a trivial
identity. Nothing here calls back into the code path under test.
"""

from __future__ import annotations

import cmath
import decimal
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

import ggphase as gg
from ggphase import EigenSystem, Observable, ParamCurve, StateVector, wrap_angle
from ggphase._io import InputError

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) keeps slow shared runners from
# failing on deadlines and prints the @reproduce_failure blob of a failing example.
settings.register_profile("ci", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# One line per acceptance check, echoed after the run summary so the result
# of every released guarantee is visible even when its test passes.
ACCEPTANCE_LINES: list[str] = []


def acceptance_report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


# numpy 2.0 renamed trapz to trapezoid; the declared floor is numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_state(rng: np.random.Generator, dim: int, normalize: bool = False) -> StateVector:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = StateVector(vec)
    return state.normalized() if normalize else state


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> Observable:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable(scale * (m + m.conj().T) / 2.0)


def random_positive_definite(rng: np.random.Generator, dim: int, margin: float = 0.3) -> Observable:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable(m.conj().T @ m / dim + margin * np.eye(dim))


def random_chain(rng: np.random.Generator, dim: int, length: int) -> list[StateVector]:
    return [random_state(rng, dim) for _ in range(length)]


def bloch_state(theta: float, phi: float) -> StateVector:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return StateVector(
        np.array(
            [math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)],
            dtype=complex,
        )
    )


# The two observables of the closed-form two-level chain phases: the swap X
# and the Hadamard (X + Z)/sqrt(2).
SWAP_X = Observable([[0, 1], [1, 0]])
HADAMARD = Observable(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))


def chain_arg_oracle(states, obs: Observable | None) -> float:
    """Arg of the cyclic link product, by plain Python loops.

    Each link is renormalized to unit modulus before multiplying so long
    chains cannot under- or overflow; a single Arg at the end uses a
    different branch-handling route than the per-link angle sum in the
    implementation under test.
    """
    mats = [np.asarray(s.components) for s in states]
    op = None if obs is None else np.asarray(obs.entries)
    prod = 1.0 + 0.0j
    n = len(mats)
    for l in range(n):
        bra, ket = mats[l], mats[(l + 1) % n]
        amp = np.vdot(bra, ket) if op is None else np.vdot(bra, op @ ket)
        mod = abs(amp)
        if mod == 0.0:
            raise AssertionError("oracle hit a vanishing link; fix the test inputs")
        prod *= amp / mod
    return cmath.phase(prod)


def connection_value_oracle(curve_states, curve_params, obs, index: int) -> float:
    """One connection sample by an explicit stencil, no vectorization."""
    psi = np.asarray(curve_states[index])
    op = np.asarray(obs.entries)
    m = len(curve_params)
    if index == 0:
        h = curve_params[1] - curve_params[0]
        dpsi = (np.asarray(curve_states[1]) - psi) / h
    elif index == m - 1:
        h = curve_params[m - 1] - curve_params[m - 2]
        dpsi = (psi - np.asarray(curve_states[m - 2])) / h
    else:
        hm = curve_params[index] - curve_params[index - 1]
        hp = curve_params[index + 1] - curve_params[index]
        prev_s = np.asarray(curve_states[index - 1])
        next_s = np.asarray(curve_states[index + 1])
        dpsi = (hm * hm * next_s + (hp * hp - hm * hm) * psi - hp * hp * prev_s) / (
            hp * hm * (hp + hm)
        )
    num = np.vdot(psi, op @ dpsi)
    den = np.vdot(psi, op @ psi)
    return (num / den).imag


def connection_terms_gradient_oracle(params, states, obs) -> tuple[np.ndarray, np.ndarray]:
    """Connection numerators <psi|O|D psi> and denominators <psi|O|psi> from
    an explicit derivative array: numpy's np.gradient (second order inside,
    first order one-sided at the ends), then one row sandwich each, with the
    bra rows conj(psi conj(O)) and the row sums of np.einsum."""
    states = np.asarray(states, dtype=np.complex128)
    bra = np.conjugate(states @ obs.conj())
    dstates = np.gradient(states, np.asarray(params, dtype=np.float64), axis=0, edge_order=1)
    return np.einsum("ij,ij->i", bra, dstates), np.einsum("ij,ij->i", bra, states)


def outputs_under_both_dispatches(program: str) -> tuple[str, str]:
    """Standard output of a Python program run on src/ in a subprocess,
    under numpy's default SIMD dispatch and with every target numpy
    dispatches to switched off; skips when this numpy dispatches none."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    if not __cpu_dispatch__:
        pytest.skip("this numpy dispatches no SIMD targets")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    default, reduced = (
        subprocess.run([sys.executable, "-c", program], env=extra, capture_output=True, text=True, check=True).stdout
        for extra in (env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)})
    )
    return default, reduced


def null_curve_oracle(a: StateVector, b: StateVector, obs: Observable, tau: float, count: int):
    """The straight-line O null curve by its documented formula, and the
    sample its singularity check must name (None when there is none), both
    from the direct (M, dim) sandwich <n|O|n>."""
    op = np.asarray(obs.entries)
    av, bv = np.asarray(a.components), np.asarray(b.components)
    theta = cmath.phase(np.vdot(bv, op @ av) / np.vdot(bv, bv).real)
    x = np.linspace(0.0, tau, count)
    states = np.exp(-1j * theta * x / tau)[:, None] * (
        (1.0 - x / tau)[:, None] * av + (x / tau * cmath.exp(1j * theta))[:, None] * bv
    )
    den = [np.vdot(n, op @ n).real for n in states]
    for l in range(1, count - 1):
        if abs(den[l]) <= 1e-12:
            return states, l
    for i in range(count - 1):
        if den[i] * den[i + 1] < 0.0:
            return states, i if abs(den[i]) < abs(den[i + 1]) else i + 1
    return states, None


def null_segment_connection_oracle(a, b, entries, theta: float, x, frac, rows, digits: int = 50) -> np.ndarray:
    """Connection values Im(num / den) at the given rows of the null curve
    e^{-i theta f} ((1 - f) A + f e^{i theta} B) on the samples x, f, by the
    stencil of the connection kernel evaluated in mpmath at `digits` decimal
    digits: states, sandwiches with O and weights from the exact steps of x
    are all formed from the same doubles the program holds, so the only
    error left in the program's values is its own rounding."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        a, b = ([mpmath.mpc(complex(z)) for z in v] for v in (a, b))
        op = [[mpmath.mpc(complex(z)) for z in row] for row in entries]
        t = mpmath.mpf(float(theta))

        def state(j):
            f = mpmath.mpf(float(frac[j]))
            gauge = mpmath.exp(-1j * t * f)
            return [gauge * ((1 - f) * p + f * mpmath.exp(1j * t) * q) for p, q in zip(a, b)]

        def sandwich(u, v):
            return mpmath.fsum(mpmath.conj(u[i]) * op[i][k] * v[k] for i in range(len(u)) for k in range(len(v)))

        values, last = [], len(x) - 1
        for l in rows:
            psi = state(l)
            den = sandwich(psi, psi)
            step = [mpmath.mpf(float(x[j + 1])) - mpmath.mpf(float(x[j])) for j in (l - 1, l) if 0 <= j < last]
            if l == 0:
                num = (sandwich(psi, state(1)) - den) / step[0]
            elif l == last:
                num = (den - sandwich(psi, state(l - 1))) / step[0]
            else:
                h1, h2 = step
                num = (-(h2 / (h1 + h2)) / h1 * sandwich(psi, state(l - 1)) + (h2 - h1) / h1 / h2 * den
                       + (h1 / (h1 + h2)) / h2 * sandwich(psi, state(l + 1)))
            values.append(float(mpmath.im(num / den)))
    return np.array(values)


def smooth_two_level_path(rng: np.random.Generator, count: int, x_safe: bool = False):
    """Seeded smooth (theta, phi) path sampled on a uniform grid.

    With ``x_safe`` the path keeps sin(theta)cos(phi) > 0.25 so the
    X-expectation never approaches zero along the curve.
    """
    s = np.linspace(0.0, 1.0, count)
    a = rng.uniform(-1.0, 1.0, size=3)
    b = rng.uniform(-1.0, 1.0, size=3)
    if x_safe:
        theta = 1.35 + 0.7 * (a[0] * np.sin(2.1 * s) + a[1] * np.cos(1.3 * s) + a[2] * s) / 3.0
        phi = 0.6 * (b[0] * np.sin(1.7 * s) + b[1] * np.cos(2.3 * s) + b[2] * s) / 3.0
    else:
        theta = 1.2 + a[0] * np.sin(2.1 * s) + a[1] * np.cos(1.3 * s) + 0.5 * a[2] * s
        phi = b[0] * np.sin(1.7 * s) + b[1] * np.cos(2.3 * s) + 0.5 * b[2] * s
    return s, theta, phi


def bloch_curve_arrays(s, theta, phi):
    states = np.empty((len(s), 2), dtype=complex)
    states[:, 0] = np.cos(theta / 2.0)
    states[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return np.asarray(s, dtype=float), states


def gauge_transform(curve: ParamCurve, offsets) -> ParamCurve:
    """The curve with each sample re-phased: states[l] -> e^{i lambda_l} states[l]."""
    return ParamCurve(curve.params, np.exp(1j * np.asarray(offsets, dtype=float))[:, None] * curve.states)


def reparametrize(curve: ParamCurve, new_params) -> ParamCurve:
    """The same states on another parameter grid."""
    return ParamCurve(new_params, curve.states)


def table_pairs(table) -> list[tuple[int, int]]:
    """The (k, l) index pairs of a phase-term table, in row order."""
    return list(zip(table.k.tolist(), table.l.tolist()))


def _triple_row(k, l, triple, den, tol_zero):
    modulus = abs(triple[0]) * abs(triple[1]) * abs(triple[2])
    if modulus <= tol_zero:
        return None
    gamma = wrap_angle(math.fsum(np.angle(z) for z in triple))
    return (k, l, float(modulus), gamma, den)


def third_order_rows_oracle(system, V: Observable, n: int, tol_zero: float) -> list[tuple]:
    """Rows (k, l, modulus, gamma_v, denominator) of the third-order table,
    one closed triple V_nk V_kl V_ln at a time in a Python double loop."""
    m = np.asarray(V.entries)
    w = 0.5 * (m + m.conj().T)
    e = system.energies
    others = [k for k in range(system.level_count) if k != n]
    rows = [
        _triple_row(
            k, l, (w[n, k], w[k, l], w[l, n]), float((e[n] - e[k]) * (e[n] - e[l])), tol_zero
        )
        for k in others
        for l in others
    ]
    return [row for row in rows if row is not None]


def triple_product_rows_oracle(model, i: int, tol_zero: float) -> list[tuple]:
    """Rows (p, q, modulus, gamma_v, denominator) of the V^3 Born table,
    one closed triple V_ip V_pq V_qi at a time in a Python double loop."""
    v = np.asarray(model.V.entries)
    e = model.energies
    eps = model.greens_epsilon
    rows = [
        _triple_row(
            p,
            q,
            (v[i, p], v[p, q], v[q, i]),
            complex((e[i] - e[p] + 1j * eps) * (e[i] - e[q] + 1j * eps)),
            tol_zero,
        )
        for p in range(model.size)
        for q in range(model.size)
    ]
    return [row for row in rows if row is not None]


def assert_table_matches_rows(table, rows) -> None:
    """Same pairs in the same order; moduli and denominators within rtol
    1e-14 and each gamma_v within 1e-14 of the oracle's on the circle (the
    vectorised products and Arg sums may round differently by a few ulps)."""
    assert table_pairs(table) == [(row[0], row[1]) for row in rows]
    np.testing.assert_allclose(table.modulus, [row[2] for row in rows], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(table.denominator, [row[4] for row in rows], rtol=1e-14, atol=0.0)
    for got, row in zip(table.gamma_v.tolist(), rows):
        assert abs(wrap_angle(got - row[3])) <= 1e-14


def _csv_cell_oracle(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = f"{float(value):.17g}"
        return text if "." in text or "e" in text else text + ".0"
    raise TypeError(f"cannot place {type(value).__name__} in a CSV cell")


def csv_text_oracle(header: list, rows: list) -> str:
    """CSV text written row by row, each cell by its own type: strings as
    they are, bools as true/false, integers in decimal, and floats with 17
    significant digits (integral ones as "1.0"). The reference for the
    column-wise table writer _io.write_csv_text."""
    lines = [",".join(header)]
    lines += [",".join(_csv_cell_oracle(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


# The located JSON parsers, one element at a time: every element's place is
# spelled out (x[1][2].im) and checked before the next one is read. The
# reference for _io's one-pass readers, which must give the same array bytes
# or the same InputError message.


def _located_double(x, where: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"{where}: integer too large for a double") from None


def located_real_oracle(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InputError(f"{where}: expected a real number, got {obj!r}")
    return _located_double(obj, where)


def located_complex_oracle(obj, where: str) -> complex:
    if isinstance(obj, bool):
        raise InputError(f"{where}: expected a number, got a boolean")
    if isinstance(obj, (int, float)):
        return complex(_located_double(obj, where), 0.0)
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        re, im = obj["re"], obj["im"]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            return complex(_located_double(re, f"{where}.re"), _located_double(im, f"{where}.im"))
    raise InputError(f'{where}: expected a number or {{"re": x, "im": y}}, got {obj!r}')


def located_vector_oracle(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array")
    return np.array(
        [located_complex_oracle(x, f"{where}[{i}]") for i, x in enumerate(obj)],
        dtype=np.complex128,
    )


def located_matrix_oracle(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array of rows")
    rows = [located_vector_oracle(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise InputError(f"{where}: rows have unequal lengths")
    return np.stack(rows)


def located_real_list_oracle(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array")
    values = [located_real_oracle(x, f"{where}[{i}]") for i, x in enumerate(obj)]
    return np.asarray(values, dtype=np.float64)


# Separable scattering -------------------------------------------------------

_PI_40 = Fraction("3.141592653589793238462643383279502884197")


def _fraction_sqrt(x: Fraction) -> Fraction:
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 60, -10**6, 10**6
        return Fraction((decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)).sqrt())


def separable_reference(coupling, beta, mass, k, born_order: int = 2) -> dict:
    """The rank-1 separable model at the given floats in exact rational
    arithmetic, with pi to 40 digits: the bubble integral "loop" and the
    fields of a `scatter separable` report. Complex values are (re, im)
    pairs of Fractions. The Yamaguchi closed form is evaluated as written
    and the Born series summed term by term, so no roundoff, overflow or
    underflow enters; each optical residual also carries the size of the
    two terms it is the difference of, under "<name>_scale"."""
    c, b, m, k = (Fraction(v) for v in (coupling, beta, mass, k))
    chi = 1 / (k * k + b * b)
    bubble = 2 * _PI_40**2 * m * chi * chi
    loop = (bubble * (k * k - b * b) / b, -2 * bubble * k)
    scale = -4 * _PI_40**2 * m * chi * chi * c
    den = (1 - c * loop[0], -c * loop[1])
    norm = den[0] ** 2 + den[1] ** 2
    exact = (scale * den[0] / norm, -scale * den[1] / norm)
    x = (c * loop[0], c * loop[1])
    power, series = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    for _ in range(born_order):
        series = (series[0] + power[0], series[1] + power[1])
        power = (power[0] * x[0] - power[1] * x[1], power[0] * x[1] + power[1] * x[0])
    born = (scale * series[0], scale * series[1])
    out = {"loop": loop, "amplitude": exact, "born_amplitude": born,
           "born_error": _fraction_sqrt((exact[0] - born[0]) ** 2 + (exact[1] - born[1]) ** 2)}
    for name, f in (("optical_residual", exact), ("born_optical_residual", born)):
        unitary = k * (f[0] ** 2 + f[1] ** 2)
        out[name] = abs(f[1] - unitary)
        out[f"{name}_scale"] = abs(f[1]) + unitary
    return out


def separable_exact_is_a_double(coupling, beta, mass, k) -> bool:
    """The exact amplitude and its optical residual at these floats are
    finite doubles, and |1 - c I| is more than twice the default tol_zero
    from zero, so no pole may be reported."""
    ref = separable_reference(coupling, beta, mass, k, born_order=1)
    c, (re, im) = Fraction(coupling), ref["loop"]
    if (1 - c * re) ** 2 + (c * im) ** 2 <= (2 * Fraction(gg.DEFAULT_TOLS.tol_zero)) ** 2:
        return False
    try:
        return all(math.isfinite(float(x)) for x in (*ref["amplitude"], ref["optical_residual"]))
    except OverflowError:  # float() of a Fraction past the doubles
        return False


def assert_near_reference(value: float, ref: Fraction, scale: Fraction | None = None) -> None:
    """value is within 1e-12 of ref relative to scale (default |ref|), or
    within four ulp of the smallest subnormal where that bound is smaller."""
    bound = Fraction(1, 10**12) * (abs(ref) if scale is None else scale)
    assert abs(Fraction(value) - ref) <= max(bound, 4 * Fraction(math.ulp(0.0))), (value, float(ref))


def assert_separable_report_near_reference(results: dict, ref: dict) -> None:
    """Every field of a `scatter separable` report against separable_reference,
    each part of a complex value relative to the size of the whole."""
    for name in ("amplitude", "born_amplitude"):
        re, im = ref[name]
        assert_near_reference(results[name]["re"], re, abs(re) + abs(im))
        assert_near_reference(results[name]["im"], im, abs(re) + abs(im))
    assert_near_reference(results["born_error"], ref["born_error"])
    for name in ("optical_residual", "born_optical_residual"):
        assert_near_reference(results[name], ref[name], ref[f"{name}_scale"])


# Oracles shared by the module tests and the acceptance sweep.


def ordered_triple_quad(w1: float, w2: float, w3: float, t: float) -> complex:
    """Adaptive nested quadrature over the ordered simplex 0<t3<t2<t1<t."""

    def inner(t2):
        re = quad(lambda t3: math.cos(w3 * t3), 0.0, t2, epsabs=1e-13, limit=200)[0]
        im = quad(lambda t3: math.sin(w3 * t3), 0.0, t2, epsabs=1e-13, limit=200)[0]
        return complex(re, im)

    def middle(t1):
        re = quad(
            lambda t2: (cmath.exp(1j * w2 * t2) * inner(t2)).real,
            0.0,
            t1,
            epsabs=1e-13,
            limit=200,
        )[0]
        im = quad(
            lambda t2: (cmath.exp(1j * w2 * t2) * inner(t2)).imag,
            0.0,
            t1,
            epsabs=1e-13,
            limit=200,
        )[0]
        return complex(re, im)

    re = quad(lambda t1: (cmath.exp(1j * w1 * t1) * middle(t1)).real, 0.0, t, epsabs=1e-12, limit=200)[0]
    im = quad(lambda t1: (cmath.exp(1j * w1 * t1) * middle(t1)).imag, 0.0, t, epsabs=1e-12, limit=200)[0]
    return complex(re, im)


def exact_survival(H0: Observable, V: Observable, i: int, t: float) -> complex:
    h0 = np.asarray(H0.entries)
    full = h0 + np.asarray(V.entries)
    wf, qf = np.linalg.eigh(full)
    u_full = qf @ np.diag(np.exp(-1j * wf * t)) @ qf.conj().T
    u0_dag = np.diag(np.exp(1j * np.diag(h0) * t))
    return complex((u0_dag @ u_full)[i, i])


def seeded_problem(seed: int, dim: int, spread: float = 1.0):
    rng = rng_for(seed)
    energies = np.cumsum(rng.uniform(0.5, 1.5, size=dim)) * spread
    return EigenSystem(energies), random_hermitian(rng, dim)


def exact_shift(sys: EigenSystem, v: Observable, n: int, coupling: float) -> float:
    h = np.diag(sys.energies) + coupling * np.asarray(v.entries)
    return float(np.linalg.eigvalsh(h)[n] - sys.energies[n])


def seeded_grid(seed: int, size: int, *, scale: float = 1.0, epsilon: float = 0.8):
    """A grid with well-separated energies and a dense Hermitian potential.

    The default regulator is O(1) so every propagator entry, including the
    on-shell one, stays O(1); that keeps absolute 1e-12 oracle comparisons
    meaningful and the Born iteration contractive for small potentials.
    """
    rng = rng_for(seed)
    energies = np.cumsum(rng.uniform(0.4, 1.1, size=size))
    labels = [f"k{j}" for j in range(size)]
    return gg.GridModel(labels, energies, 1.0, random_hermitian(rng, size, scale), epsilon)


def green_diag(model: gg.GridModel, i: int) -> np.ndarray:
    return 1.0 / (model.energies[i] - model.energies + 1j * model.greens_epsilon)


def brute_force_terms(model: gg.GridModel, i: int) -> tuple[complex, complex, complex]:
    """Forward Born terms as explicit index sums, in bare (unscaled) units."""
    v = model.V.entries
    g = green_diag(model, i)
    n = model.size
    t0 = v[i, i]
    t1 = sum(v[i, p] * g[p] * v[p, i] for p in range(n))
    t2 = sum(
        v[i, p] * g[p] * v[p, q] * g[q] * v[q, i]
        for p in range(n)
        for q in range(n)
    )
    return complex(t0), complex(t1), complex(t2)


AMP_SCALE = -4.0 * math.pi**2
