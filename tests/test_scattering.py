"""Tests for the momentum-grid Born expansion and the rank-1 separable model.

Grid quantities are checked against brute-force loop sums written
independently of the vectorized implementation.  The separable continuum
model's closed-form bubble integral is checked against scipy's
Cauchy-weighted quadrature and against exact rational arithmetic, and the
exact amplitude against a frozen regression number.
"""

import cmath
import math

import numpy as np
import pytest

import ggphase as gg
from ggphase import PoleAtEnergy, SingularKernel

from conftest import (
    AMP_SCALE,
    assert_near_reference,
    assert_table_matches_rows,
    brute_force_terms,
    green_diag,
    rng_for,
    seeded_grid,
    separable_reference,
    table_pairs,
    triple_product_rows_oracle,
)


def analytic_loop(k: float, beta: float, mass: float) -> complex:
    """Closed form of int d^3p chi(p)^2 / (E_k - p^2/2m + i0)."""
    scale = 2.0 * math.pi**2 * mass / (k * k + beta * beta) ** 2
    return scale * complex((k * k - beta * beta) / beta, -2.0 * k)


class TestGridModel:
    def test_basic_properties(self):
        model = seeded_grid(3, 4)
        assert model.size == 4
        assert model.labels == ("k0", "k1", "k2", "k3")
        assert model.index_of("k2") == 2
        assert model.mass == 1.0

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            seeded_grid(3, 4).index_of("k9")

    def test_duplicate_labels_rejected(self):
        obs = gg.Observable(np.eye(2))
        with pytest.raises(ValueError):
            gg.GridModel(["a", "a"], [0.0, 1.0], 1.0, obs)

    def test_energy_shape_mismatch(self):
        obs = gg.Observable(np.eye(2))
        with pytest.raises(ValueError):
            gg.GridModel(["a", "b"], [0.0, 1.0, 2.0], 1.0, obs)

    def test_nonfinite_energy_rejected(self):
        obs = gg.Observable(np.eye(2))
        with pytest.raises(ValueError):
            gg.GridModel(["a", "b"], [0.0, math.inf], 1.0, obs)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
    def test_bad_mass_rejected(self, mass):
        obs = gg.Observable(np.eye(2))
        with pytest.raises(ValueError):
            gg.GridModel(["a", "b"], [0.0, 1.0], mass, obs)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, math.inf])
    def test_bad_epsilon_rejected(self, eps):
        obs = gg.Observable(np.eye(2))
        with pytest.raises(ValueError):
            gg.GridModel(["a", "b"], [0.0, 1.0], 1.0, obs, eps)

    def test_potential_dim_mismatch(self):
        obs = gg.Observable(np.eye(3))
        with pytest.raises(ValueError):
            gg.GridModel(["a", "b"], [0.0, 1.0], 1.0, obs)

    def test_energies_read_only(self):
        model = seeded_grid(3, 4)
        with pytest.raises(ValueError):
            model.energies[0] = 99.0


class TestBornForwardAmplitude:
    def test_zero_potential(self):
        obs = gg.Observable(np.zeros((3, 3)))
        model = gg.GridModel(["a", "b", "c"], [0.0, 1.0, 2.0], 1.0, obs)
        report = gg.born_forward_amplitude(model, 0)
        assert report.term0 == 0
        assert report.term1 == 0
        assert report.term2 == 0
        assert report.total == 0
        assert report.spectral_radius == 0.0

    def test_diagonal_potential_single_term(self):
        # With diagonal V only p = i contributes, and the regulator keeps
        # the on-shell denominator finite: term1 = V_ii^2 / (i eps).
        eps = 1e-3
        diag = np.diag([0.7, -0.4, 1.3])
        model = gg.GridModel(
            ["a", "b", "c"], [0.0, 1.0, 2.0], 1.0, gg.Observable(diag), eps
        )
        report = gg.born_forward_amplitude(model, 1)
        expected = AMP_SCALE * (-0.4) ** 2 / (1j * eps)
        assert report.term1 == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed,size,i", [(11, 4, 0), (12, 4, 2), (13, 7, 3)])
    def test_matches_brute_force_sums(self, seed, size, i):
        model = seeded_grid(seed, size)
        report = gg.born_forward_amplitude(model, i)
        t0, t1, t2 = brute_force_terms(model, i)
        scale = AMP_SCALE * model.mass
        assert report.term0 == pytest.approx(scale * t0, abs=1e-12)
        assert report.term1 == pytest.approx(scale * t1, abs=1e-12)
        assert report.term2 == pytest.approx(scale * t2, abs=1e-12)

    def test_total_is_term_sum(self):
        report = gg.born_forward_amplitude(seeded_grid(21, 5), 1)
        assert report.total == report.term0 + report.term1 + report.term2

    def test_spectral_radius_diagonal_closed_form(self):
        eps = 0.5
        diag = np.diag([0.2, 0.9])
        model = gg.GridModel(["a", "b"], [0.0, 2.0], 1.0, gg.Observable(diag), eps)
        expected = max(
            abs(0.2 / (0.0 - 0.0 + 1j * eps)), abs(0.9 / (0.0 - 2.0 + 1j * eps))
        )
        assert gg.born_spectral_radius(model, 0) == pytest.approx(expected, rel=1e-12)

    def test_divergent_series_reported(self):
        # A strong potential pushes the spectral radius of G0 V past one;
        # the report must say so rather than hide it.
        model = seeded_grid(31, 4, scale=50.0)
        report = gg.born_forward_amplitude(model, 0)
        assert report.spectral_radius > 1.0
        assert np.isfinite(
            [report.term0, report.term1, report.term2]
        ).all()

    @pytest.mark.parametrize("i", [-1, 4])
    def test_index_out_of_range(self, i):
        with pytest.raises(ValueError):
            gg.born_forward_amplitude(seeded_grid(3, 4), i)


class TestLippmannSchwinger:
    def test_zero_potential_returns_basis_state(self):
        obs = gg.Observable(np.zeros((3, 3)))
        model = gg.GridModel(["a", "b", "c"], [0.0, 1.0, 2.0], 1.0, obs)
        psi = gg.lippmann_schwinger_solve(model, 2).psi
        np.testing.assert_allclose(psi, [0.0, 0.0, 1.0], atol=0)
        assert psi.dtype == np.complex128 and not psi.flags.writeable

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_defect_below_tolerance(self, seed):
        model = seeded_grid(seed, 8, scale=0.4)
        i = 3
        state = gg.lippmann_schwinger_solve(model, i)
        psi = state.psi
        rhs = np.zeros(8, dtype=complex)
        rhs[i] = 1.0
        defect = psi - rhs - green_diag(model, i) * (model.V.entries @ psi)
        assert np.linalg.norm(defect) < 1e-12
        # The solve reports that same defect, and the condition number of
        # the matrix it solved.
        assert state.defect == np.linalg.norm(defect)
        assert state.condition_number == gg.kernel_condition_number(model, i)

    def test_weak_potential_matches_born_iterate(self):
        # psi+ = sum_n (G0 V)^n |i>; truncating after the quadratic term
        # leaves an O(V^3) error, so halving V shrinks it about 8x.
        def truncation_error(scale):
            model = seeded_grid(55, 5, scale=scale)
            i = 1
            psi = gg.lippmann_schwinger_solve(model, i).psi
            e = np.zeros(5, dtype=complex)
            e[i] = 1.0
            gv = green_diag(model, i)[:, None] * model.V.entries
            iterate = e + gv @ e + gv @ (gv @ e)
            return np.linalg.norm(psi - iterate)

        ratio = truncation_error(0.02) / truncation_error(0.01)
        assert ratio == pytest.approx(8.0, abs=1.5)

    def test_singular_kernel_detected(self):
        # Probing exactly at a grid energy with a vanishing regulator makes
        # one propagator entry enormous and the solve unusable.
        obs = gg.Observable(np.eye(2))
        model = gg.GridModel(["a", "b"], [0.0, 1.0], 1.0, obs, 1e-16)
        with pytest.raises(SingularKernel):
            gg.lippmann_schwinger_solve(model, 0)

    @pytest.mark.parametrize(
        "routine",
        [gg.born_spectral_radius, gg.born_forward_amplitude, gg.kernel_condition_number,
         gg.lippmann_schwinger_solve],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_kernel_is_typed(self, routine):
        # V of 1e300 over a regulator of 1e-300 puts 1e600 in G0 V.
        obs = gg.Observable(np.full((3, 3), 1e300))
        model = gg.GridModel(list("abc"), [0.0, 1.0, 2.0], 1.0, obs, 1e-300)
        with pytest.raises(gg.Overflow, match="grid point 0 overflows a double"):
            routine(model, 0)

    def test_condition_number_identity_for_zero_potential(self):
        obs = gg.Observable(np.zeros((4, 4)))
        model = gg.GridModel(list("abcd"), [0.0, 1.0, 2.0, 3.0], 1.0, obs)
        assert gg.kernel_condition_number(model, 0) == pytest.approx(1.0, rel=1e-12)


class TestTripleProductPhases:
    def test_real_positive_potential_has_zero_phases(self):
        rng = rng_for(61)
        m = rng.uniform(0.1, 1.0, size=(4, 4))
        obs = gg.Observable((m + m.T) / 2)
        model = gg.GridModel(list("abcd"), np.arange(4.0), 1.0, obs, 1e-2)
        table = gg.triple_product_phases(model, 0)
        assert len(table) == 16
        assert all(gamma == 0.0 for gamma in table.gamma_v)

    def test_three_point_example(self):
        # Off-diagonal triple <0|V|1><1|V|2><2|V|0> = e^{i pi/3}; zero
        # diagonal kills every other pair.
        w = cmath.exp(1j * math.pi / 3)
        v = np.array(
            [[0, 1, 1], [1, 0, w], [1, np.conj(w), 0]], dtype=complex
        )
        model = gg.GridModel(["a", "b", "c"], [0.0, 1.0, 2.0], 1.0, gg.Observable(v), 1e-2)
        table = gg.triple_product_phases(model, 0)
        pairs = table_pairs(table)
        assert pairs == [(1, 2), (2, 1)]
        assert table.gamma_v[0] == pytest.approx(math.pi / 3, abs=1e-15)
        assert table.gamma_v[1] == pytest.approx(-math.pi / 3, abs=1e-15)

    def test_rows_are_p_major(self):
        table = gg.triple_product_phases(seeded_grid(62, 5), 2)
        pairs = table_pairs(table)
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("seed,size,i", [(63, 4, 0), (64, 6, 3)])
    def test_reconstruction_matches_cubic_term(self, seed, size, i):
        model = seeded_grid(seed, size)
        table = gg.triple_product_phases(model, i)
        _, _, t2 = brute_force_terms(model, i)
        assert table.reconstruct() == pytest.approx(t2, abs=1e-12)

    def test_antisymmetry_under_pair_swap(self):
        model = seeded_grid(65, 5)
        table = gg.triple_product_phases(model, 1)
        gamma = dict(zip(table_pairs(table), table.gamma_v))
        for (p, q), g in gamma.items():
            # Negation modulo 2 pi: a phase of exactly pi is its own negative.
            assert gg.wrapped_distance(gamma[(q, p)], -g) < 1e-15

    def test_invariant_under_basis_rephasing(self):
        # Re-phasing the momentum states conjugates V by a diagonal phase
        # matrix; the closed triples, hence every gamma, are unchanged.
        model = seeded_grid(66, 5)
        rng = rng_for(67)
        d = np.exp(1j * rng.uniform(-math.pi, math.pi, size=5))
        v2 = gg.Observable(np.conj(d)[:, None] * model.V.entries * d[None, :])
        model2 = gg.GridModel(model.labels, model.energies, 1.0, v2, model.greens_epsilon)
        t1 = gg.triple_product_phases(model, 2)
        t2 = gg.triple_product_phases(model2, 2)
        assert len(t1) == len(t2)
        for r in range(len(t1)):
            assert (t1.k[r], t1.l[r]) == (t2.k[r], t2.l[r])
            assert t2.gamma_v[r] == pytest.approx(t1.gamma_v[r], abs=1e-12)
            assert t2.modulus[r] == pytest.approx(t1.modulus[r], rel=1e-12)

    def test_zero_modulus_rows_skipped(self):
        v = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        model = gg.GridModel(["a", "b", "c"], [0.0, 1.0, 2.0], 1.0, gg.Observable(v), 1e-2)
        pairs = table_pairs(gg.triple_product_phases(model, 0))
        # Only triples through p, q in {0, 1} with every factor nonzero.
        assert pairs == [(0, 0), (0, 1), (1, 0)]

    @pytest.mark.parametrize(
        "seed,size,i,zeroed,tol_zero",
        [(68, 9, 4, 0, 1e-12), (69, 12, 0, 8, 1e-12), (70, 10, 9, 6, 0.05)],
    )
    def test_matches_loop_oracle(self, seed, size, i, zeroed, tol_zero):
        model = seeded_grid(seed, size)
        v = np.array(model.V.entries)
        for a, b in rng_for(seed + 1000).integers(0, size, size=(zeroed, 2)):
            v[a, b] = v[b, a] = 0.0
        model = gg.GridModel(
            model.labels, model.energies, model.mass, gg.Observable(v), model.greens_epsilon
        )
        rows = triple_product_rows_oracle(model, i, tol_zero)
        if zeroed:
            assert len(rows) < size**2
        table = gg.triple_product_phases(model, i, tol=gg.ToleranceConfig(tol_zero=tol_zero))
        assert_table_matches_rows(table, rows)

    @pytest.mark.parametrize("imag_zero", [0.0, -0.0])
    def test_negative_real_triples_carry_exactly_pi(self, imag_zero):
        # with a -0.0 imaginary part a negative element has Arg -pi
        m = rng_for(71).uniform(-1.0, 1.0, size=(6, 6))
        entries = np.empty((6, 6), dtype=complex)
        entries.real, entries.imag = (m + m.T) / 2, imag_zero
        model = gg.GridModel(list("abcdef"), np.arange(6.0), 1.0, gg.Observable(entries), 1e-2)
        v = entries.real
        table = gg.triple_product_phases(model, 3)
        assert_table_matches_rows(table, triple_product_rows_oracle(model, 3, 1e-12))
        signs = [v[3, p] * v[p, q] * v[q, 3] for p, q in table_pairs(table)]
        assert any(x < 0.0 for x in signs) and any(x > 0.0 for x in signs)
        for sign, gamma in zip(signs, table.gamma_v.tolist()):
            assert gamma == (math.pi if sign < 0.0 else 0.0)


class TestLoopIntegral:
    @pytest.mark.parametrize(
        "k,beta,mass",
        [(0.5, 1.0, 1.0), (2.0, 0.7, 1.3), (0.1, 2.0, 0.5), (1.7, 1.7, 1.0)],
    )
    def test_matches_analytic_value(self, k, beta, mass):
        model = gg.SeparableModel(coupling=-0.1, beta=beta, mass=mass)
        value = gg.loop_integral(model, k)
        expected = analytic_loop(k, beta, mass)
        assert value.real == pytest.approx(expected.real, abs=1e-9 * abs(expected.imag))
        assert value.imag == pytest.approx(expected.imag, rel=1e-14)

    def test_on_shell_at_range_scale_is_purely_imaginary(self):
        # At k = beta the principal value vanishes identically.
        model = gg.SeparableModel(coupling=0.3, beta=1.4, mass=1.0)
        value = gg.loop_integral(model, 1.4)
        assert abs(value.real) < 1e-9 * abs(value.imag)

    @pytest.mark.parametrize("k", [0.0, -0.5, math.inf, math.nan])
    def test_bad_momentum_rejected(self, k):
        model = gg.SeparableModel(coupling=0.1, beta=1.0, mass=1.0)
        with pytest.raises(ValueError):
            gg.loop_integral(model, k)

    # (1.0000001, 1.0) cancels all but 7 digits of k^2 - beta^2; in the last
    # two, beta / k and k / beta are below 2^-1022, so the smaller of the two
    # scaled momenta is 0 or subnormal
    @pytest.mark.parametrize(("k", "beta", "mass"), [
        (1e300, 1.0, 1.0), (1e80, 1.0, 1.0), (1.0, 1.2e77, 1.0), (1.0, 1e-100, 1.0), (1.0000001, 1.0, 1.0),
        (1e100, 1e-250, 1.0), (1e-270, 1e50, 1e300),
    ])
    def test_extreme_scales_match_exact_reference(self, k, beta, mass):
        model = gg.SeparableModel(coupling=0.1, beta=beta, mass=mass)
        value = gg.loop_integral(model, k)
        re, im = separable_reference(0.1, beta, mass, k)["loop"]
        assert_near_reference(value.real, re)
        assert_near_reference(value.imag, im)

    def test_subnormal_form_factor_keeps_its_digits(self):
        # chi(k) = 1 / (2e320) is subnormal, but I is about -9.9e-180i
        model = gg.SeparableModel(coupling=0.1, beta=1e160, mass=1e300)
        value = gg.loop_integral(model, 1e160)
        re, im = separable_reference(0.1, 1e160, 1e300, 1e160)["loop"]
        assert value.real == re == 0
        assert_near_reference(value.imag, im)

    def test_bubble_past_the_doubles_overflows(self):
        # chi(k) is about 1e580, and I about 2e1150
        model = gg.SeparableModel(coupling=0.1, beta=1e-300, mass=1.0)
        with pytest.raises(gg.Overflow, match="bubble integral"):
            gg.loop_integral(model, 1e-290)

    @pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 1.7, 6.0])
    @pytest.mark.parametrize("beta", [0.3, 1.0, 1.7])
    def test_principal_value_matches_cauchy_quadrature(self, k, beta):
        # PV int_0^inf p^2 / ((p^2 + beta^2)^2 (k^2 - p^2)) dp by QUADPACK:
        # the Cauchy weight 1/(p - k) on [0, 2k], the regular tail beyond,
        # each to 1e-13 of the size pi / (4 beta (k^2 + beta^2)) of the terms.
        from scipy.integrate import quad

        size = math.pi / (4.0 * beta * (k * k + beta**2))
        near, _ = quad(lambda p: -p * p / ((p * p + beta**2) ** 2 * (p + k)), 0.0, 2.0 * k,
                       weight="cauchy", wvar=k, epsabs=1e-13 * size, epsrel=0.0, limit=200)
        tail, _ = quad(lambda p: p * p / ((p * p + beta**2) ** 2 * (k * k - p * p)), 2.0 * k, math.inf,
                       epsabs=1e-13 * size, epsrel=0.0, limit=200)
        model = gg.SeparableModel(coupling=0.1, beta=beta, mass=1.3)
        value = gg.loop_integral(model, k).real / (8.0 * math.pi * model.mass)
        assert value == pytest.approx(near + tail, abs=1e-12 * size)


class TestSeparableModel:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            gg.SeparableModel(coupling=0.1, beta=0.0, mass=1.0)
        with pytest.raises(ValueError):
            gg.SeparableModel(coupling=0.1, beta=1.0, mass=-1.0)
        with pytest.raises(ValueError):
            gg.SeparableModel(coupling=math.nan, beta=1.0, mass=1.0)

    def test_zero_coupling_amplitude_vanishes(self):
        model = gg.SeparableModel(coupling=0.0, beta=1.0, mass=1.0)
        assert gg.separable_tmatrix(model, 0.5) == 0
        assert gg.separable_born_amplitude(model, 0.5, 3) == 0

    def test_tmatrix_frozen_regression(self):
        model = gg.SeparableModel(coupling=-0.1, beta=1.0, mass=1.0)
        value = gg.separable_tmatrix(model, 0.5)
        assert value == pytest.approx(
            0.08300005287638969 + 1.9965495427837576j, abs=1e-8
        )

    def test_tmatrix_matches_analytic_bubble(self):
        model = gg.SeparableModel(coupling=-0.1, beta=1.0, mass=1.0)
        k = 0.5
        chi_sq = 1.0 / (k * k + 1.0) ** 2
        expected = (
            AMP_SCALE * model.mass * model.coupling * chi_sq
            / (1.0 - model.coupling * analytic_loop(k, 1.0, 1.0))
        )
        assert gg.separable_tmatrix(model, k) == pytest.approx(expected, abs=1e-10)

    def test_born_series_converges_to_exact(self):
        model = gg.SeparableModel(coupling=-0.02, beta=1.0, mass=1.0)
        exact = gg.separable_tmatrix(model, 0.5)
        errs = [
            abs(gg.separable_born_amplitude(model, 0.5, order) - exact)
            for order in (1, 2, 4, 24)
        ]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        # |coupling * I| is about 0.32 here, so 24 powers reach ~1e-12.
        assert errs[3] < 1e-11

    def test_born_series_matches_term_by_term_sum(self):
        # Orders 1..17 walk every bit pattern of the doubling up to 10001.
        model = gg.SeparableModel(coupling=-0.1, beta=0.9, mass=1.2)
        for order in range(1, 18):
            value = gg.separable_born_amplitude(model, 0.6, order)
            re, im = separable_reference(-0.1, 0.9, 1.2, 0.6, order)["born_amplitude"]
            assert_near_reference(value.real, re, abs(re) + abs(im))
            assert_near_reference(value.imag, im, abs(re) + abs(im))

    def test_first_born_term_is_real(self):
        model = gg.SeparableModel(coupling=-0.3, beta=1.0, mass=2.0)
        k = 0.8
        value = gg.separable_born_amplitude(model, k, 1)
        expected = AMP_SCALE * 2.0 * (-0.3) / (k * k + 1.0) ** 2
        assert value == pytest.approx(expected, rel=1e-14)
        assert value.imag == 0.0

    def test_second_born_truncation_is_cubic_in_coupling(self):
        # |f_exact - f_Born2| = O(coupling^3) inside the convergence
        # region, so halving the coupling shrinks it roughly 8x.
        def err(lam):
            model = gg.SeparableModel(coupling=lam, beta=1.0, mass=1.0)
            return abs(
                gg.separable_tmatrix(model, 0.5)
                - gg.separable_born_amplitude(model, 0.5, 2)
            )

        assert 6.5 <= err(-0.02) / err(-0.01) <= 9.5

    def test_bad_order_rejected(self):
        model = gg.SeparableModel(coupling=0.1, beta=1.0, mass=1.0)
        with pytest.raises(ValueError):
            gg.separable_born_amplitude(model, 0.5, 0)

    @pytest.mark.parametrize("order", [150, 300])
    def test_overflowing_series_rejected(self, order):
        # At coupling 10, |c I| > 1: the truncated series overflows a double
        # (order 150 to inf, order 300 inside the complex power).
        model = gg.SeparableModel(coupling=10.0, beta=1.0, mass=1.0)
        with pytest.raises(gg.Overflow, match=f"order-{order} .*coupling 10.0"):
            gg.separable_born_amplitude(model, 0.5, order)

    @pytest.mark.parametrize(("beta", "k"), [(1e-300, 1e-290), (1e160, 1e160)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_amplitude_where_chi_squared_leaves_the_doubles(self, beta, k):
        # Formed as -4 pi^2 m c chi^2 / (1 - c I), these amplitudes were
        # nan+nanj (chi overflows, so 1 - cI is nan) and -inf+infj (m c
        # overflows); they are about 2e280 + 4e270i and 1e-160i.
        model = gg.SeparableModel(coupling=1e300, beta=beta, mass=1e300)
        ref = separable_reference(1e300, beta, 1e300, k, born_order=1)
        value = gg.separable_tmatrix(model, k)
        re, im = ref["amplitude"]
        assert_near_reference(value.real, re, abs(re) + abs(im))
        assert_near_reference(value.imag, im, abs(re) + abs(im))
        assert_near_reference(gg.optical_theorem_residual(model, k), ref["optical_residual"],
                              ref["optical_residual_scale"])

    @pytest.mark.parametrize(("coupling", "beta", "mass", "k"), [
        (1e300, 1e160, 1e300, 1e160), (-1e-300, 1e-200, 1e-300, 3e-201),
        (1e-300, 1e-160, 1e-300, 1e-160), (1e300, 1e170, 1e300, 1e100),
    ])
    def test_first_born_term_where_chi_squared_leaves_the_doubles(self, coupling, beta, mass, k):
        # the term -4 pi^2 m c chi^2 is a double in every case, but formed
        # as written it is -0.0, inf, -inf and -0.0
        model = gg.SeparableModel(coupling=coupling, beta=beta, mass=mass)
        re, im = separable_reference(coupling, beta, mass, k, born_order=1)["born_amplitude"]
        value = gg.separable_born_amplitude(model, k, 1)
        assert_near_reference(value.real, re)
        assert value.imag == 0.0

    @pytest.mark.parametrize(("coupling", "beta", "mass", "k"), [
        (1.0, 1e-300, 1.0, 1e20), (0.1, 1e50, 1e300, 1e-270), (1.0, 1e-10, 1.0, 1e-320),
    ])
    def test_imaginary_parts_where_a_scaled_momentum_leaves_the_normals(self, coupling, beta, mass, k):
        # beta / k or k / beta is below 2^-1022, so the smaller scaled momentum
        # is subnormal; each part of the order-2 Born and exact amplitudes is a
        # normal double and keeps its digits
        model = gg.SeparableModel(coupling=coupling, beta=beta, mass=mass)
        ref = separable_reference(coupling, beta, mass, k)
        for value, (re, im) in ((gg.separable_born_amplitude(model, k, 2), ref["born_amplitude"]),
                                (gg.separable_tmatrix(model, k), ref["amplitude"])):
            assert_near_reference(value.real, re)
            assert_near_reference(value.imag, im)

    @pytest.mark.parametrize(("coupling", "beta", "mass", "k", "order"), [
        (-9.93e39, 1.6e-193, 1.8e204, 1.1e168, 4),
        (-5.314135885550604e143, 2.111462481708858e-286, 9.981937865621398e-275, 0.06857135006114048, 3),
        (-7.324263889668035e210, 1.375206572947531e-89, 2.337881341649533e192, 5.149391537740732e183, 6),
    ])
    def test_born_amplitude_where_a_power_of_c_i_leaves_the_doubles(self, coupling, beta, mass, k, order):
        # c I, or one of its powers up to order - 1, is past the doubles,
        # while -Q (1 + c I + ... + (c I)^(order-1)) is a double
        model = gg.SeparableModel(coupling=coupling, beta=beta, mass=mass)
        re, im = separable_reference(coupling, beta, mass, k, born_order=order)["born_amplitude"]
        value = gg.separable_born_amplitude(model, k, order)
        assert_near_reference(value.real, re, abs(re) + abs(im))
        assert_near_reference(value.imag, im, abs(re) + abs(im))

    def test_pole_guard(self):
        # No real coupling puts a pole exactly on the real axis, so the
        # guard is exercised by widening the zero tolerance past |1 - cI|.
        model = gg.SeparableModel(coupling=-0.038, beta=1.0, mass=1.0)
        wide = gg.ToleranceConfig(tol_zero=1.5)
        with pytest.raises(PoleAtEnergy):
            gg.separable_tmatrix(model, 0.5, tol=wide)


class TestOpticalTheorem:
    def test_zero_coupling(self):
        model = gg.SeparableModel(coupling=0.0, beta=1.0, mass=1.0)
        assert gg.optical_theorem_residual(model, 0.5) == 0.0

    @pytest.mark.parametrize(
        "coupling,k", [(-0.1, 0.5), (-0.1, 2.0), (0.2, 0.7), (-1.5, 1.0)]
    )
    def test_exact_amplitude_is_unitary(self, coupling, k):
        # Im f = k |f|^2 for the exact rank-1 amplitude reduces to
        # Im I = -4 pi^2 m k chi(k)^2, which holds independently of the
        # principal value, so the residual is pure roundoff.
        model = gg.SeparableModel(coupling=coupling, beta=1.0, mass=1.0)
        assert gg.optical_theorem_residual(model, k) < 1e-14

    def test_first_born_residual_closed_form(self):
        # The first Born term is real, so the residual is exactly k |f1|^2.
        model = gg.SeparableModel(coupling=-0.1, beta=1.0, mass=1.0)
        k = 0.5
        f1 = gg.separable_born_amplitude(model, k, 1)
        residual = gg.optical_theorem_residual(model, k, born_order=1)
        assert residual == pytest.approx(k * abs(f1) ** 2, rel=1e-14)

    def test_overflowing_residual_rejected(self):
        # The order-100 amplitude is finite, but |f|^2 exceeds a double.
        model = gg.SeparableModel(coupling=10.0, beta=1.0, mass=1.0)
        assert math.isfinite(abs(gg.separable_born_amplitude(model, 0.5, 100)))
        with pytest.raises(gg.Overflow, match="order-100 .*coupling 10.0"):
            gg.optical_theorem_residual(model, 0.5, born_order=100)

    def test_second_born_residual_is_cubic_in_coupling(self):
        def res(lam):
            model = gg.SeparableModel(coupling=lam, beta=1.0, mass=1.0)
            return gg.optical_theorem_residual(model, 0.5, born_order=2)

        assert res(-0.02) / res(-0.01) == pytest.approx(8.0, abs=2.0)
