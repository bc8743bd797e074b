"""Acceptance sweep: eleven numbered end-to-end checks.

Each test exercises one released guarantee at its stated tolerance and
prints a single PASS/FAIL line with the measured extreme, so a test run
doubles as a verification report. Random inputs are drawn from fixed seeds;
where a generator rejects draws (non-orthogonality, chord conditioning) the
gates are part of the documented input domain, stated in the docstring.
"""

import cmath
import math

import numpy as np

import ggphase as gg

from conftest import (
    HADAMARD,
    SWAP_X,
    acceptance_report as report,
    bloch_curve_arrays,
    bloch_state,
    random_hermitian,
    random_positive_definite,
    random_state,
    rng_for,
    smooth_two_level_path,
    trapezoid,
)
from test_dynamics import exact_survival, ordered_triple_quad
from test_perturbation import exact_shift, seeded_problem
from test_scattering import AMP_SCALE, brute_force_terms, seeded_grid

# 21 polar angles in (0, pi) U (pi, 2 pi) and 21 azimuths in (-pi, pi),
# both clear of every closed-form branch point.
THETA_GRID = [(j + 0.5) * 2.0 * math.pi / 22.0 for j in range(21)]
PHI_GRID = [-math.pi + (i + 1) * 2.0 * math.pi / 22.0 for i in range(21)]


def swap_chain(theta: float, phi: float, obs: gg.Observable) -> float:
    states = [
        gg.StateVector([1.0, 0.0]),
        bloch_state(theta, phi),
        gg.StateVector([0.0, 1.0]),
    ]
    return gg.generalized_phase_chain(states, obs).value


def test_criterion_01_two_level_swap_closed_form():
    """Chain phase through (|0>, |Psi>, |1>) under the swap operator equals
    wrap(phi) on the upper hemisphere and wrap(pi + phi) on the lower."""
    worst = 0.0
    for theta in THETA_GRID:
        for phi in PHI_GRID:
            got = swap_chain(theta, phi, SWAP_X)
            want = gg.wrap_angle(phi if theta < math.pi else math.pi + phi)
            worst = max(worst, abs(gg.wrapped_distance(got, want)))
    ok = worst < 1e-10
    report(1, ok, f"swap closed form on 21x21 grid: max deviation {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_02_two_level_hadamard_closed_form():
    """Hadamard chain phase equals atan2(sin(theta) sin(phi), cos(theta)),
    and the single-argument arctan form wherever cos(theta) > 0; the two
    grid points with vanishing modulus are excluded."""
    worst = worst_arctan = 0.0
    used = 0
    for theta in THETA_GRID:
        for phi in PHI_GRID:
            re = math.cos(theta)
            im = math.sin(theta) * math.sin(phi)
            if math.hypot(re, im) < 1e-6:
                continue
            used += 1
            got = swap_chain(theta, phi, HADAMARD)
            worst = max(worst, abs(gg.wrapped_distance(got, math.atan2(im, re))))
            if re > 0.0:
                single = math.atan(math.tan(theta) * math.sin(phi))
                worst_arctan = max(worst_arctan, abs(gg.wrapped_distance(got, single)))
    ok = worst < 1e-9 and worst_arctan < 1e-9
    report(
        2,
        ok,
        f"hadamard closed form on {used} grid points: max deviation {worst:.3e}, "
        f"arctan branch {worst_arctan:.3e} (tol 1e-9)",
    )
    assert ok


def test_criterion_03_gauge_invariance():
    """Per-state phase offsets never move the chain phase: 1000 seeded
    chains, dims 2-6, lengths 3-7, random Hermitian observables."""
    worst = 0.0
    for case in range(1000):
        rng = rng_for(10_000 + case)
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(3, 8))
        states = [random_state(rng, dim) for _ in range(n)]
        obs = random_hermitian(rng, dim)
        base = gg.generalized_phase_chain(states, obs).value
        offsets = rng.uniform(-math.pi, math.pi, size=n)
        shifted = [
            gg.StateVector(np.exp(1j * a) * s.components)
            for a, s in zip(offsets, states)
        ]
        moved = gg.generalized_phase_chain(shifted, obs).value
        worst = max(worst, abs(gg.wrapped_distance(base, moved)))
    ok = worst < 1e-10
    report(3, ok, f"gauge invariance over 1000 chains: max deviation {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_04_weak_value_identity():
    """The chain phase of a triple equals the wrapped sum of the three
    sequential-weak-value arguments and the bare overlap phase. Triples are
    redrawn whenever a pairwise overlap or observable link falls below 1e-6,
    keeping them mutually non-orthogonal."""
    worst = 0.0
    accepted = 0
    attempt = 0
    while accepted < 500:
        attempt += 1
        rng = rng_for(20_000 + attempt)
        dim = int(rng.integers(2, 6))
        states = [random_state(rng, dim) for _ in range(3)]
        obs = random_hermitian(rng, dim)
        links = [
            abs(np.vdot(states[i].components, states[(i + 1) % 3].components))
            for i in range(3)
        ] + [
            abs(np.vdot(states[i].components, obs.entries @ states[(i + 1) % 3].components))
            for i in range(3)
        ]
        if min(links) < 1e-6:
            continue
        accepted += 1
        via_weak = gg.phase_via_weak_values(states, obs)
        direct = gg.generalized_phase_chain(states, obs).value
        worst = max(worst, abs(gg.wrapped_distance(via_weak, direct)))
    ok = worst < 1e-9
    report(4, ok, f"weak-value identity over 500 triples: max deviation {worst:.3e} (tol 1e-9)")
    assert ok


def _accepted_pair(rng):
    """One (A, B, O) draw with positive-definite O, accepted when the link
    is nonvanishing, |theta| <= 2, and the phase-aligned chord keeps
    <n|O|n> within a 0.2 min/max ratio (201-point scan). The gates bound
    the conditioning of the null interpolation, which otherwise amplifies
    the theta^3/(6 M^2) discretization floor past the stated tolerance."""
    while True:
        dim = int(rng.integers(2, 5))
        a = random_state(rng, dim, normalize=True)
        b = random_state(rng, dim, normalize=True)
        obs = random_positive_definite(rng, dim)
        link = np.vdot(b.components, obs.entries @ a.components)
        theta = float(np.angle(link / np.vdot(b.components, b.components).real))
        if abs(link) < 1e-6 or abs(theta) > 2.0:
            continue
        x = np.linspace(0.0, 1.0, 201)
        chord = (1 - x)[:, None] * a.components + (
            x * np.exp(1j * theta)
        )[:, None] * b.components
        den = np.einsum("ld,de,le->l", chord.conj(), obs.entries, chord).real
        if den.min() / den.max() < 0.2:
            continue
        return a, b, obs, theta


def test_criterion_05_null_curves_and_holonomy():
    """Null curves carry no phase, closing an open arc with one changes
    nothing, and the triangle of null curves reproduces the chain phase."""
    rng = rng_for(505)
    pairs = [_accepted_pair(rng) for _ in range(100)]
    worst_null = 0.0
    for a, b, obs, _ in pairs:
        curve = gg.o_null_curve(a, b, obs, M=2001)
        worst_null = max(worst_null, abs(gg.curve_phase(curve, obs).value))

    worst_loop = 0.0
    for a, b, obs, theta in pairs[:20]:
        x = np.linspace(0.0, 1.0, 2001)
        chord = (1 - x)[:, None] * a.components + (
            x * np.exp(1j * theta)
        )[:, None] * b.components
        chord /= np.linalg.norm(chord, axis=1)[:, None]
        arc = gg.ParamCurve(x, chord)
        open_phase = gg.curve_phase(arc, obs).value
        closed = gg.loop_holonomy(arc, obs).value
        worst_loop = max(worst_loop, abs(gg.wrapped_distance(closed, open_phase)))

    rng_tri = rng_for(506)
    worst_tri = 0.0
    accepted = 0
    while accepted < 50:
        dim = int(rng_tri.integers(2, 5))
        a, b, c = (random_state(rng_tri, dim, normalize=True) for _ in range(3))
        obs = random_positive_definite(rng_tri, dim)
        links = [
            abs(np.vdot(v.components, obs.entries @ u.components))
            for u, v in ((a, b), (b, c), (c, a))
        ]
        if min(links) < 1e-6:
            continue
        accepted += 1
        tri = gg.triangle_holonomy(a, b, c, obs, M=2001).value
        chain = gg.generalized_phase_chain([a, b, c], obs).value
        worst_tri = max(worst_tri, abs(gg.wrapped_distance(tri, chain)))

    ok = worst_null < 1e-6 and worst_loop < 1e-6 and worst_tri < 1e-5
    report(
        5,
        ok,
        f"null curves at M=2001: nullity {worst_null:.3e} (tol 1e-6), "
        f"loop vs open arc {worst_loop:.3e} (tol 1e-6), "
        f"triangle vs chain {worst_tri:.3e} (tol 1e-5)",
    )
    assert ok


def test_criterion_06_refinement_convergence():
    """Doubling the sample count of a smooth two-level curve shrinks the
    curve-phase change about fourfold (second-order stencils); checked on
    four seeded curves across M in {251, 501, 1001}."""
    ratios = []
    for seed in (201, 202, 203, 204):
        phases = []
        for count in (251, 501, 1001):
            s, theta, phi = smooth_two_level_path(rng_for(seed), count, x_safe=True)
            params, states = bloch_curve_arrays(s, theta, phi)
            phases.append(gg.curve_phase(gg.ParamCurve(params, states), SWAP_X).value)
        d1 = abs(gg.wrapped_distance(phases[0], phases[1]))
        d2 = abs(gg.wrapped_distance(phases[1], phases[2]))
        ratios.append(d1 / d2)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(
        6,
        ok,
        "refinement ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " (band [3.5, 4.5])",
    )
    assert ok


def test_criterion_07_projective_cycle_slope():
    """The projective-cycle phase converges linearly in the step epsilon:
    halving epsilon halves the gap to the product-of-elements limit."""
    ratios = []
    for seed in (301, 302, 303, 304, 305):
        h = random_hermitian(rng_for(seed), 3)
        basis = [gg.StateVector.basis_vector(3, k) for k in range(3)]
        e = np.asarray(h.entries)
        limit = float(np.angle(e[0, 2] * e[2, 1] * e[1, 0]))
        gaps = [
            abs(
                gg.wrapped_distance(
                    gg.projective_cycle_amplitude(h, basis, eps).extracted_phase, limit
                )
            )
            for eps in (1e-2, 5e-3, 2.5e-3)
        ]
        ratios.extend([gaps[0] / gaps[1], gaps[1] / gaps[2]])
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    report(
        7,
        ok,
        "cycle slope ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " (band 2 +/- 0.3)",
    )
    assert ok


def test_criterion_08_perturbation_series():
    """Truncating the level-shift series after third order leaves an
    O(lambda^4) error, so halving lambda from 0.1 shrinks it about 16x;
    the third-order double sum is real up to 1e-12."""
    ratios = []
    residues = []
    for seed, dim in ((112, 3), (113, 4)):
        system, potential = seeded_problem(seed, dim)
        level = dim // 2
        errs = []
        for lam in (0.1, 0.05):
            series = gg.energy_shift(system, potential, level, lam).total
            errs.append(abs(exact_shift(system, potential, level, lam) - series))
        ratios.append(errs[0] / errs[1])
        table = gg.third_order_phase_terms(system, potential, level)
        residues.append(abs(table.reconstruct().imag))
    ok = all(12.0 <= r <= 20.0 for r in ratios) and all(r < 1e-12 for r in residues)
    report(
        8,
        ok,
        "shift halving ratios " + ", ".join(f"{r:.2f}" for r in ratios)
        + f" (band [12, 20]); imag residue {max(residues):.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_09_survival_amplitude():
    """Third-order interaction-picture survival amplitudes err as O(t^4),
    and the triple-frequency kernel matches adaptive quadrature on 50
    triples, ten of them degenerate or nearly so."""
    ratios = []
    for seed, dim, level in ((98, 4, 1), (97, 3, 0)):
        rng = rng_for(seed)
        h0 = gg.Observable(np.diag(np.sort(rng.uniform(-2.0, 2.0, size=dim))))
        v = random_hermitian(rng, dim, scale=0.4)
        errs = [
            abs(
                gg.survival_amplitude(h0, v, level, t, order=3)
                - exact_survival(h0, v, level, t)
            )
            for t in (0.2, 0.1)
        ]
        ratios.append(errs[0] / errs[1])

    rng = rng_for(909)
    triples = [tuple(rng.uniform(-3.0, 3.0, size=3)) for _ in range(40)]
    for _ in range(5):
        w = float(rng.uniform(-2.0, 2.0))
        triples.append((w, w + 1e-7, w - 1e-7))
        triples.append((w, w, w + 1e-8))
    worst_kernel = 0.0
    for w1, w2, w3 in triples:
        t = float(rng.uniform(0.3, 1.5))
        diff = abs(gg.f_mn(w1, w2, w3, t) - ordered_triple_quad(w1, w2, w3, t))
        worst_kernel = max(worst_kernel, diff)
    ok = all(12.0 <= r <= 20.0 for r in ratios) and worst_kernel < 1e-9
    report(
        9,
        ok,
        "survival halving ratios " + ", ".join(f"{r:.2f}" for r in ratios)
        + f" (band [12, 20]); kernel vs quadrature {worst_kernel:.2e} on 50 triples (tol 1e-9)",
    )
    assert ok


def test_criterion_10_scattering():
    """Grid Born terms equal brute-force index sums; the exact rank-1
    amplitude satisfies the optical theorem; truncating its series at
    second order leaves an O(coupling^3) error."""
    worst_term = 0.0
    for seed, size, i in ((11, 4, 0), (12, 5, 2), (13, 7, 3)):
        model = seeded_grid(seed, size)
        rep = gg.born_forward_amplitude(model, i)
        t0, t1, t2 = brute_force_terms(model, i)
        scale = AMP_SCALE * model.mass
        worst_term = max(
            worst_term,
            abs(rep.term0 - scale * t0),
            abs(rep.term1 - scale * t1),
            abs(rep.term2 - scale * t2),
        )

    model = gg.SeparableModel(coupling=-0.1, beta=1.0, mass=1.0)
    residual = gg.optical_theorem_residual(model, 0.5)

    def born2_err(lam):
        m = gg.SeparableModel(coupling=lam, beta=1.0, mass=1.0)
        return abs(gg.separable_tmatrix(m, 0.5) - gg.separable_born_amplitude(m, 0.5, 2))

    ratio = born2_err(-0.02) / born2_err(-0.01)
    ok = worst_term < 1e-12 and residual < 1e-8 and 6.5 <= ratio <= 9.5
    report(
        10,
        ok,
        f"born terms vs brute force {worst_term:.2e} (tol 1e-12); "
        f"optical residual {residual:.2e} (tol 1e-8); "
        f"second-order coupling ratio {ratio:.2f} (band [6.5, 9.5])",
    )
    assert ok


def test_criterion_11_identity_reduction():
    """With the identity observable every generalized quantity collapses to
    its bare-overlap counterpart computed from first principles on the same
    inputs: chain phases, connection samples, curve phases, and both null
    constructions."""
    worst = 0.0

    # chains against the cyclic product of bare overlaps
    for seed in range(5):
        rng = rng_for(1100 + seed)
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(3, 7))
        states = [random_state(rng, dim) for _ in range(n)]
        product = complex(1.0)
        for i in range(n):
            product *= np.vdot(states[i].components, states[(i + 1) % n].components)
        got = gg.generalized_phase_chain(states, None).value
        worst = max(worst, abs(gg.wrapped_distance(got, cmath.phase(product))))

    # connection and curve phase against the bare-overlap formulas on the
    # same grid and the same finite-difference stencils
    for seed in (1201, 1202):
        s, theta, phi = smooth_two_level_path(rng_for(seed), 301)
        params, states = bloch_curve_arrays(s, theta, phi)
        curve = gg.ParamCurve(params, states)
        samples = gg.connection_samples(curve, None)
        dstates = np.gradient(states, params, axis=0, edge_order=1)
        num = np.einsum("ld,ld->l", states.conj(), dstates)
        den = np.einsum("ld,ld->l", states.conj(), states).real
        classical = np.imag(num / den)
        worst = max(worst, float(np.max(np.abs(samples.values - classical))))

        got = gg.curve_phase(curve, None).value
        # endpoint reference is the closing link, end state back to start
        endpoint = cmath.phase(np.vdot(states[-1], states[0]))
        classical_phase = gg.wrap_angle(endpoint + trapezoid(classical, params))
        worst = max(worst, abs(gg.wrapped_distance(got, classical_phase)))

    # null constructions against their explicit closed forms
    for seed in (1301, 1302, 1303):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 5))
        a = random_state(rng, dim, normalize=True)
        b = random_state(rng, dim, normalize=True)
        x = np.linspace(0.0, 1.0, 501)

        got_null = gg.o_null_curve(a, b, None, M=501).states
        theta = np.angle(np.vdot(b.components, a.components))
        want_null = np.exp(-1j * theta * x)[:, None] * (
            (1 - x)[:, None] * a.components
            + (x * np.exp(1j * theta))[:, None] * b.components
        )
        worst = max(worst, float(np.max(np.abs(got_null - want_null))))

        tau = 1.0
        got_geo = gg.geodesic_null_curve(a, b, tau=tau, M=501).states
        theta_g = np.angle(np.vdot(a.components, b.components))
        want_geo = (
            np.exp(1j * theta_g * x / tau)[:, None]
            * (
                np.sin(tau - x)[:, None] * a.components
                + (np.sin(x) * np.exp(-1j * theta_g))[:, None] * b.components
            )
            / math.sin(tau)
        )
        worst = max(worst, float(np.max(np.abs(got_geo - want_geo))))

    ok = worst < 1e-12
    report(11, ok, f"identity reduction: max deviation {worst:.3e} (tol 1e-12)")
    assert ok
