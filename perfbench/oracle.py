"""Reference values computed with numpy and scipy alone, and the checks that
compare a ggphase report against them.

Nothing here imports ggphase: every expected value is derived from the
generated inputs by an independent numpy/scipy computation. Tolerances follow
the matching criteria of tests/test_acceptance.py (named beside each check);
fields those criteria do not cover are compared at the precision their
arithmetic allows, so a single flipped value in a report is caught.

A check returns a list of problem strings; an empty list means the report
passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * math.pi
AMP_SCALE = -4.0 * math.pi**2

# criterion 3 and 11: chain phases
TOL_CHAIN = 1e-10
# criterion 5: null-curve nullity and loop vs open arc; triangle vs chain
TOL_NULL = 1e-6
TOL_TRIANGLE = 1e-5
# criterion 10: Born terms vs brute force (absolute, on O(1) sums) and the
# optical-theorem residual of the exact separable amplitude
TOL_BORN = 1e-12
TOL_OPTICAL = 1e-8
# the separable amplitude rests on a principal-value quadrature converged to 1e-9
TOL_SEPARABLE_REL = 1e-8
# criterion 8: reality of the third-order double sum
TOL_REALITY = 1e-12
# same-stencil connection values and curve phases (criterion 11 uses 1e-12
# on short curves; 20k-sample trapezoid sums accumulate more rounding)
TOL_CURVE = 1e-10
# elementwise table entries: products and Arg sums of three doubles
TOL_ROW = 1e-12
# ggphase's default tol_zero: triple-table rows whose modulus is at or below
# it are omitted from the table
TOL_ZERO = 1e-12


def wrap(angle: float) -> float:
    """Angle reduced to (-pi, pi]."""
    r = math.remainder(float(angle), TWO_PI)
    return math.pi if r <= -math.pi else r


def wrapped_gap(a: float, b: float) -> float:
    return abs(math.remainder(float(a) - float(b), TWO_PI))


def complex_of(obj) -> complex:
    return complex(obj["re"], obj["im"])


class Checker:
    """Collects problems for one report under a name prefix."""

    def __init__(self, where: str):
        self.where = where
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.problems.append(f"{self.where}: {msg}")

    def equal(self, key: str, got, want) -> None:
        if got != want:
            self.fail(f"{key} = {got!r}, expected {want!r}")

    def close(self, key: str, got, want, tol: float) -> None:
        try:
            gap = abs(complex(got) - complex(want))
        except (TypeError, ValueError):
            self.fail(f"{key} = {got!r} is not a number")
            return
        if not gap <= tol:
            self.fail(f"{key} = {got!r}, expected {want!r} (gap {gap:.3e} > {tol:.1e})")

    def rel(self, key: str, got, want, rtol: float) -> None:
        self.close(key, got, want, rtol * max(abs(complex(want)), 1e-300))

    def angle(self, key: str, got, want, tol: float) -> None:
        try:
            gap = wrapped_gap(got, want)
        except (TypeError, ValueError):
            self.fail(f"{key} = {got!r} is not a number")
            return
        if not gap <= tol:
            self.fail(f"{key} = {got!r}, expected {want!r} (wrapped gap {gap:.3e} > {tol:.1e})")

    def arrays(self, key: str, got: np.ndarray, want: np.ndarray, tol: np.ndarray | float) -> None:
        if got.shape != want.shape:
            self.fail(f"{key}: shape {got.shape}, expected {want.shape}")
            return
        bad = np.flatnonzero(~(np.abs(got - want) <= tol))
        if bad.size:
            j = int(bad[0])
            self.fail(f"{key}[{j}] = {got.flat[j]!r}, expected {want.flat[j]!r} ({bad.size} bad)")

    def angles(self, key: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
        if got.shape != want.shape:
            self.fail(f"{key}: shape {got.shape}, expected {want.shape}")
            return
        gap = np.abs(np.remainder(got - want + math.pi, TWO_PI) - math.pi)
        self.arrays(key + " (wrapped)", gap, np.zeros_like(gap), tol)


def results_of(report, c: Checker) -> dict | None:
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        c.fail("report has no results object")
        return None
    return report["results"]


def load_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body


# Chains -------------------------------------------------------------------


def chain_links(states: np.ndarray, obs: np.ndarray | None) -> np.ndarray:
    """<psi_l|O|psi_{l+1 mod N}> for an (N, d) stack."""
    ket = np.roll(states, -1, axis=0)
    if obs is not None:
        ket = ket @ obs.T
    return np.sum(states.conj() * ket, axis=1)


def chain_phase(states: np.ndarray, obs: np.ndarray | None) -> tuple[float, float]:
    """Wrapped sum of the link Args, and the smallest link modulus."""
    links = chain_links(states, obs)
    return wrap(float(np.sum(np.angle(links)))), float(np.abs(links).min())


# Curves -------------------------------------------------------------------


def connection(params: np.ndarray, states: np.ndarray, obs: np.ndarray):
    """Sampled Im(<psi|O|D psi>/<psi|O|psi>) with second-order central and
    first-order one-sided differences, plus the denominators."""
    dstates = np.gradient(states, params, axis=0, edge_order=1)
    o_psi = states @ obs.T
    den = np.sum(o_psi.conj() * states, axis=1)
    num = np.sum(o_psi.conj() * dstates, axis=1)
    return np.imag(num / den), den


def trapezoid(values: np.ndarray, params: np.ndarray) -> float:
    return math.fsum((0.5 * (values[1:] + values[:-1]) * np.diff(params)).tolist())


def curve_phase(params: np.ndarray, states: np.ndarray, obs: np.ndarray):
    """Endpoint Arg plus trapezoid connection integral; min link modulus; samples."""
    values, den = connection(params, states, obs)
    last, first = states[-1], states[0]
    endpoint_amp = complex(np.vdot(last, obs @ first))
    endpoint = math.atan2(endpoint_amp.imag, endpoint_amp.real)
    value = wrap(endpoint + trapezoid(values, params))
    return value, min(abs(endpoint_amp), float(np.abs(den).min())), values


def null_curve_states(a: np.ndarray, b: np.ndarray, obs: np.ndarray, samples: int, tau: float = 1.0):
    """n(x) = e^{-i theta x/tau}((1 - x/tau) a + (x/tau) e^{i theta} b),
    theta = Arg(<b|O|a>/<b|b>), on a uniform grid of [0, tau]."""
    link = complex(np.vdot(b, obs @ a)) / float(np.vdot(b, b).real)
    theta = math.atan2(link.imag, link.real)
    x = np.linspace(0.0, tau, samples)
    frac = x / tau
    states = np.exp(-1j * theta * frac)[:, None] * (
        (1.0 - frac)[:, None] * a[None, :] + (frac * np.exp(1j * theta))[:, None] * b[None, :]
    )
    return x, states


def null_expected_integral(a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> float:
    amp = complex(np.vdot(a, obs @ b)) / float(np.vdot(b, b).real)
    return wrap(math.atan2(amp.imag, amp.real))


# Dynamics -----------------------------------------------------------------


def cycle_amplitude(h: np.ndarray, epsilon: float) -> complex:
    """<b0|U|b2><b2|U|b1><b1|U|b0> on the first three axes, U = expm(-i eps H)."""
    u = scipy.linalg.expm(-1j * epsilon * h)
    return complex(u[0, 2] * u[2, 1] * u[1, 0])


def two_level_phase(kind: str, theta: float, phi: float) -> float:
    """Chain phase of (|0>, cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, |1>)."""
    if kind == "x":
        obs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    else:
        r = 1.0 / math.sqrt(2.0)
        obs = np.array([[r, r], [r, -r]], dtype=complex)
    psi = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    states = np.array([[1.0, 0.0], psi, [0.0, 1.0]], dtype=complex)
    return chain_phase(states, obs)[0]


def survival_exact(h0_diag: np.ndarray, v: np.ndarray, i: int, t: float) -> complex:
    """<i| exp(i H0 t) exp(-i (H0 + V) t) |i> by matrix exponentials."""
    u = scipy.linalg.expm(-1j * t * (np.diag(h0_diag) + v))
    return complex(np.exp(1j * h0_diag[i] * t) * u[i, i])


def survival_bound(v: np.ndarray, t: float) -> float:
    """Remainder bound of the Dyson series after third order: with
    x = t ||V||_2 the k-th term is at most x^k / k!, so the tail is at most
    e^x x^4 / 24."""
    x = t * float(np.linalg.norm(v, 2))
    return math.exp(x) * x**4 / 24.0


# Perturbation and scattering tables --------------------------------------


def perturb_expected(levels: np.ndarray, v: np.ndarray, n: int) -> dict:
    """Third-order shift pieces and the (k, l) triple table of level n,
    vectorized over all pairs k, l != n (k-major)."""
    w = 0.5 * (v + v.conj().T)
    others = np.array([k for k in range(levels.shape[0]) if k != n])
    gaps = levels[n] - levels[others]
    wn = w[n, others]
    wkl = w[np.ix_(others, others)]
    wln = w[others, n]
    terms = wn[:, None] * wkl * wln[None, :] / (gaps[:, None] * gaps[None, :])
    double = complex(np.sum(terms))
    order1 = float(w[n, n].real)
    order2 = float(np.sum(np.abs(wn) ** 2 / gaps))
    order3 = double.real - order1 * float(np.sum(np.abs(wn) ** 2 / gaps**2))
    kk, ll = np.meshgrid(others, others, indexing="ij")
    modulus = np.abs(wn)[:, None] * np.abs(wkl) * np.abs(wln)[None, :]
    gamma = np.angle(wn)[:, None] + np.angle(wkl) + np.angle(wln)[None, :]
    kept = modulus.ravel() > TOL_ZERO
    return {
        "order1": order1,
        "order2": order2,
        "order3": order3,
        "double": double,
        "scale": float(np.sum(np.abs(terms))),
        "k": kk.ravel()[kept],
        "l": ll.ravel()[kept],
        "modulus": modulus.ravel()[kept],
        "gamma": gamma.ravel()[kept],
        "denominator": (gaps[:, None] * gaps[None, :]).ravel()[kept],
    }


def grid_expected(energies: np.ndarray, mass: float, epsilon: float, v: np.ndarray, i: int) -> dict:
    """Born terms as explicit index sums and the (p, q) triple table (p-major)."""
    g = 1.0 / (energies[i] - energies + 1j * epsilon)
    scale = AMP_SCALE * mass
    terms2 = v[i, :, None] * g[:, None] * v * g[None, :] * v[None, :, i]
    n = energies.shape[0]
    pp, qq = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a, b, c = v[i, :][:, None], v, v[:, i][None, :]
    modulus = (np.abs(a) * np.abs(b) * np.abs(c)).ravel()
    kept = modulus > TOL_ZERO
    prop = energies[i] - energies + 1j * epsilon
    return {
        "term0": scale * complex(v[i, i]),
        "term1": scale * complex(np.sum(v[i, :] * g * v[:, i])),
        "term2": scale * complex(np.sum(terms2)),
        "bare_term2": complex(np.sum(terms2)),
        "scale": abs(scale) * float(np.sum(np.abs(terms2))),
        "bare_scale": float(np.sum(np.abs(terms2))),
        "p": pp.ravel()[kept],
        "q": qq.ravel()[kept],
        "modulus": modulus[kept],
        "gamma": (np.angle(a) + np.angle(b) + np.angle(c)).ravel()[kept],
        "denominator": (prop[:, None] * prop[None, :]).ravel()[kept],
    }


def separable_loop(k: float, beta: float, mass: float) -> complex:
    """Closed form of int d^3p chi(p)^2 / (E_k - p^2/2m + i0), chi = 1/(p^2 + beta^2)."""
    scale = 2.0 * math.pi**2 * mass / (k * k + beta * beta) ** 2
    return scale * complex((k * k - beta * beta) / beta, -2.0 * k)


def separable_expected(coupling: float, beta: float, mass: float, k: float, born_order: int = 2):
    loop = separable_loop(k, beta, mass)
    chi_sq = 1.0 / (k * k + beta * beta) ** 2
    exact = AMP_SCALE * mass * coupling * chi_sq / (1.0 - coupling * loop)
    series = sum(coupling ** (j + 1) * loop**j for j in range(born_order))
    born = AMP_SCALE * mass * chi_sq * series
    return exact, born


def optical_residual(f: complex, k: float) -> float:
    return abs(f.imag - k * abs(f) ** 2)


# Report checks -----------------------------------------------------------


def check_phase(report, where, states, obs) -> list[str]:
    c = Checker(where)
    res = results_of(report, c)
    if res is None:
        return c.problems
    value, min_mod = chain_phase(states, obs)
    c.angle("value", res.get("value"), value, TOL_CHAIN)
    c.rel("min_link_modulus", res.get("min_link_modulus"), min_mod, TOL_CHAIN)
    c.equal("chain_length", res.get("chain_length"), states.shape[0])
    return c.problems


def check_curve(report, csv_path, where, params, states, obs) -> list[str]:
    c = Checker(where)
    res = results_of(report, c)
    if res is None:
        return c.problems
    value, min_mod, values = curve_phase(params, states, obs)
    c.angle("value", res.get("value"), value, TOL_CURVE)
    c.rel("min_link_modulus", res.get("min_link_modulus"), min_mod, TOL_CURVE)
    c.equal("sample_count", res.get("sample_count"), params.shape[0])
    _check_connection_csv(c, csv_path, params, values)
    return c.problems


def _check_connection_csv(c: Checker, csv_path, params, values) -> None:
    if csv_path is None:
        return
    header, body = load_csv(csv_path)
    c.equal("csv header", header, ["s", "a_o"])
    if body.shape != (params.shape[0], 2):
        c.fail(f"csv shape {body.shape}, expected {(params.shape[0], 2)}")
        return
    c.arrays("csv s", body[:, 0], params, 0.0)
    c.arrays("csv a_o", body[:, 1], values, TOL_CURVE)


def check_null_curve(report, csv_path, where, a, b, obs, samples) -> list[str]:
    c = Checker(where)
    res = results_of(report, c)
    if res is None:
        return c.problems
    expected = null_expected_integral(a, b, obs)
    c.close("curve_phase (nullity)", res.get("curve_phase"), 0.0, TOL_NULL)
    c.angle("connection_integral", res.get("connection_integral"), expected, TOL_NULL)
    c.angle("expected_integral", res.get("expected_integral"), expected, TOL_CHAIN)
    c.equal("sample_count", res.get("sample_count"), samples)
    x, states = null_curve_states(a, b, obs, samples)
    values, _ = connection(x, states, obs)
    _check_connection_csv(c, csv_path, x, values)
    return c.problems


def check_cycle(res: dict, c: Checker, h: np.ndarray, epsilon: float) -> None:
    amp = cycle_amplitude(h, epsilon)
    got = res.get("amplitude")
    if not isinstance(got, dict):
        c.fail("amplitude missing")
        return
    c.rel("amplitude", complex_of(got), amp, TOL_CHAIN)
    c.angle(
        "extracted_phase",
        res.get("extracted_phase"),
        wrap(math.atan2(amp.imag, amp.real) + 1.5 * math.pi),
        TOL_CHAIN,
    )
    c.equal("epsilon", res.get("epsilon"), epsilon)


def check_separable(res: dict, c: Checker, coupling, beta, mass, k, born_order=2) -> None:
    exact, born = separable_expected(coupling, beta, mass, k, born_order)
    try:
        amp = complex_of(res["amplitude"])
        born_amp = complex_of(res["born_amplitude"])
    except (KeyError, TypeError):
        c.fail("amplitude fields missing")
        return
    c.rel("amplitude", amp, exact, TOL_SEPARABLE_REL)
    c.rel("born_amplitude", born_amp, born, TOL_SEPARABLE_REL)
    c.close("optical_residual (bound)", res.get("optical_residual"), 0.0, TOL_OPTICAL)
    # the residuals restated from the reported amplitudes, to the rounding of
    # the two terms they cancel
    for key, f in (("optical_residual", amp), ("born_optical_residual", born_amp)):
        scale = abs(f.imag) + k * abs(f) ** 2
        c.close(key, res.get(key), optical_residual(f, k), TOL_ROW * scale)
    c.rel("born_error", res.get("born_error"), abs(amp - born_amp), 1e-9)
    c.equal("born_order", res.get("born_order"), born_order)


def check_perturb(report, csv_path, where, levels, v, n, coupling) -> list[str]:
    c = Checker(where)
    res = results_of(report, c)
    if res is None:
        return c.problems
    want = perturb_expected(levels, v, n)
    shift = res.get("shift") or {}
    tol = TOL_ROW * max(want["scale"], 1.0)
    c.close("shift.order1", shift.get("order1"), want["order1"], TOL_ROW * max(abs(want["order1"]), 1.0))
    c.close("shift.order2", shift.get("order2"), want["order2"], tol)
    c.close("shift.order3", shift.get("order3"), want["order3"], tol)
    c.equal("shift.coupling", shift.get("coupling"), coupling)
    total = coupling * want["order1"] + coupling**2 * want["order2"] + coupling**3 * want["order3"]
    c.close("shift.total", shift.get("total"), total, tol)
    rows = res.get("phase_terms")
    if not isinstance(rows, list):
        c.fail("phase_terms missing")
        return c.problems
    try:
        k = np.array([r["k"] for r in rows])
        l = np.array([r["l"] for r in rows])
        mod = np.array([r["modulus"] for r in rows], dtype=float)
        gam = np.array([r["gamma_v"] for r in rows], dtype=float)
        den = np.array([r["denominator"] for r in rows], dtype=float)
    except (KeyError, TypeError, ValueError):
        c.fail("phase_terms rows are malformed")
        return c.problems
    _check_table(c, (k, l, mod, gam, den), (want["k"], want["l"], want["modulus"], want["gamma"], want["denominator"]))
    recon = complex(np.sum(mod * np.exp(1j * gam) / den))
    c.close("table reconstruction (imag)", recon.imag, 0.0, TOL_REALITY * max(want["scale"], 1.0))
    c.close("table reconstruction", recon.real, want["double"].real, 1e-10 * max(want["scale"], 1.0))
    if csv_path is not None:
        header, body = load_csv(csv_path)
        c.equal("csv header", header, ["k", "l", "modulus", "gamma_v", "denominator"])
        c.arrays("csv rows", body, np.column_stack([k, l, mod, gam, den]), 0.0)
    return c.problems


def _check_table(c: Checker, got, want) -> None:
    names = ("index 1", "index 2", "modulus", "gamma_v", "denominator")
    if got[0].shape != want[0].shape:
        c.fail(f"table has {got[0].shape[0]} rows, expected {want[0].shape[0]}")
        return
    c.arrays(names[0], got[0], want[0], 0)
    c.arrays(names[1], got[1], want[1], 0)
    c.arrays(names[2], got[2], want[2], TOL_ROW * np.abs(want[2]))
    c.angles(names[3], got[3], want[3], TOL_ROW)
    c.arrays(names[4], got[4], want[4], TOL_ROW * np.abs(want[4]))


def check_grid(report, csv_path, where, energies, mass, epsilon, v, i, label) -> list[str]:
    c = Checker(where)
    res = results_of(report, c)
    if res is None:
        return c.problems
    want = grid_expected(energies, mass, epsilon, v, i)
    born = res.get("born") or {}
    try:
        terms = {key: complex_of(born[key]) for key in ("term0", "term1", "term2", "total")}
    except (KeyError, TypeError):
        c.fail("born terms missing")
        return c.problems
    tol = TOL_BORN * max(want["scale"], 1.0)
    for key in ("term0", "term1", "term2"):
        c.close(f"born.{key}", terms[key], want[key], tol)
    c.close("born.total", terms["total"], want["term0"] + want["term1"] + want["term2"], tol)
    c.equal("incoming", res.get("incoming"), label)
    rows = res.get("phase_terms")
    if not isinstance(rows, list):
        c.fail("phase_terms missing")
        return c.problems
    try:
        p = np.array([r["p"] for r in rows])
        q = np.array([r["q"] for r in rows])
        mod = np.array([r["modulus"] for r in rows], dtype=float)
        gam = np.array([r["gamma_v"] for r in rows], dtype=float)
        den = np.array([complex_of(r["denominator"]) for r in rows])
    except (KeyError, TypeError, ValueError):
        c.fail("phase_terms rows are malformed")
        return c.problems
    _check_table(c, (p, q, mod, gam, den), (want["p"], want["q"], want["modulus"], want["gamma"], want["denominator"]))
    recon = complex(np.sum(mod * np.exp(1j * gam) / den))
    c.close("table reconstruction", recon, want["bare_term2"], 1e-10 * max(want["bare_scale"], 1.0))
    if csv_path is not None:
        header, body = load_csv(csv_path)
        c.equal("csv header", header, ["p", "q", "modulus", "gamma_v", "denominator_re", "denominator_im"])
        c.arrays("csv rows", body, np.column_stack([p, q, mod, gam, den.real, den.imag]), 0.0)
    return c.problems


def check_error(report, where, error_type: str, fields: dict) -> list[str]:
    """An exit-2 payload: the typed error, plus any fields it must carry."""
    c = Checker(where)
    err = report.get("error") if isinstance(report, dict) else None
    if not isinstance(err, dict):
        c.fail("report carries no error object")
    else:
        c.equal("error.type", err.get("type"), error_type)
        for key, want in fields.items():
            c.equal(f"error.{key}", err.get(key), want)
    return c.problems
