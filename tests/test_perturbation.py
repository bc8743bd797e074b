"""Stationary perturbation series and the triple-product phase table."""

import math

import numpy as np
import pytest

from conftest import (
    assert_table_matches_rows,
    exact_shift,
    random_hermitian,
    rng_for,
    seeded_problem,
    table_pairs,
    third_order_rows_oracle,
)
from ggphase import (
    DegenerateSpectrum,
    EigenSystem,
    Observable,
    PhaseTermTable,
    StateVector,
    ToleranceConfig,
    energy_shift,
    perturbed_state,
    third_order_phase_terms,
    wrap_angle,
    wrapped_distance,
)
from ggphase.perturbation import _wrap_angles


def zeroed_problem(seed: int, dim: int):
    """A seeded problem with some V entries zeroed in Hermitian pairs, so
    that whole rows of the triple table vanish."""
    sys, v = seeded_problem(seed, dim)
    w = np.array(v.entries)
    rng = rng_for(seed + 1000)
    for a, b in rng.integers(0, dim, size=(dim, 2)):
        w[a, b] = w[b, a] = 0.0
    return sys, Observable(w)


def rotated_problem(seed: int, dim: int):
    """A seeded problem in a random unitary eigenbasis."""
    rng = rng_for(seed)
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    energies = np.cumsum(rng.uniform(0.5, 1.5, size=dim))
    system = EigenSystem(energies, [StateVector(q[:, k]) for k in range(dim)])
    return system, random_hermitian(rng, dim)


def perturbed_state_oracle(sys: EigenSystem, v: Observable, n: int, coupling: float) -> np.ndarray:
    """The second-order eigenvector, one basis state and one inner sum at a time."""
    b = np.asarray(sys.basis_matrix)
    m = b.conj() @ np.asarray(v.entries) @ b.T
    w = 0.5 * (m + m.conj().T)
    e = sys.energies
    others = [k for k in range(sys.level_count) if k != n]
    vec = b[n].astype(np.complex128)
    for k in others:
        gap_k = e[n] - e[k]
        first = w[k, n] / gap_k
        second = (
            sum(w[k, l] * w[l, n] / (gap_k * (e[n] - e[l])) for l in others)
            - w[n, n] * w[k, n] / gap_k**2
        )
        vec = vec + (coupling * first + coupling**2 * second) * b[k]
    return vec


class TestEigenSystem:
    def test_standard_basis(self):
        sys = EigenSystem.standard([0.0, 1.0, 2.5])
        assert sys.level_count == 3 and sys.dim == 3
        np.testing.assert_array_equal(sys.basis_matrix, np.eye(3))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EigenSystem.standard([1.0, 0.0])

    def test_rejects_near_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            EigenSystem.standard([0.0, 1e-9])

    def test_rejects_skew_basis(self):
        basis = [StateVector([1.0, 0.0]), StateVector([1.0, 1.0])]
        with pytest.raises(ValueError):
            EigenSystem([0.0, 1.0], basis)

    def test_rotated_basis_accepted(self):
        q = np.linalg.qr(rng_for(110).normal(size=(3, 3)) + 1j * rng_for(111).normal(size=(3, 3)))[0]
        basis = [StateVector(q[:, k]) for k in range(3)]
        sys = EigenSystem([0.0, 1.0, 2.0], basis)
        assert sys.dim == 3

    @pytest.mark.parametrize("seed", [120, 121, 122])
    def test_standard_basis_skips_the_basis_change_bit_for_bit(self, seed):
        # the standard basis takes V's entries directly; the same axes given
        # as an explicit basis run the dense basis change, to the same bits
        standard, v = seeded_problem(seed, 24)
        explicit = EigenSystem(standard.energies, [StateVector(row) for row in np.eye(24)])
        for n in (0, 11, 23):
            assert energy_shift(standard, v, n, 0.1) == energy_shift(explicit, v, n, 0.1)
            got, want = (third_order_phase_terms(s, v, n) for s in (standard, explicit))
            for column in ("k", "l", "modulus", "gamma_v", "denominator"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_zero_diagonal_element_is_positive_zero(self):
        # V's -0.0 parts are read as +0.0, so order1 of a level whose V_nn is
        # zero prints as 0.0 whatever the sign of zero in the input
        v = Observable([[-0.0, complex(-0.5, -0.0)], [complex(-0.5, 0.0), complex(-0.0, -0.0)]])
        system = EigenSystem.standard([0.0, 1.0])
        for n in (0, 1):
            assert math.copysign(1.0, energy_shift(system, v, n, 0.1).order1) == 1.0


class TestEnergyShift:
    def test_two_level_closed_form(self):
        # H = [[0, c], [c, 1]]: exact ground shift (1 - sqrt(1 + 4c^2))/2,
        # whose series is -c^2 + c^4 + ...; order3 vanishes by symmetry
        sys = EigenSystem.standard([0.0, 1.0])
        v = Observable([[0.0, 1.0], [1.0, 0.0]])
        shift = energy_shift(sys, v, 0, 0.1)
        assert shift.order1 == 0.0
        assert shift.order2 == pytest.approx(-1.0)
        assert shift.order3 == pytest.approx(0.0, abs=1e-15)
        exact = (1.0 - math.sqrt(1.0 + 0.04)) / 2.0
        assert exact - shift.total == pytest.approx(0.1 ** 4, rel=0.1)

    @pytest.mark.parametrize("seed,dim", [(112, 3), (113, 4)])
    def test_halving_ratio_is_sixteen(self, seed, dim):
        sys, v = seeded_problem(seed, dim)
        n = dim // 2
        errs = [
            abs(energy_shift(sys, v, n, lam).total - exact_shift(sys, v, n, lam))
            for lam in (0.1, 0.05)
        ]
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_orders_match_brute_force_sums(self):
        sys, v = seeded_problem(114, 4)
        w = np.asarray(v.entries)
        e = sys.energies
        n = 1
        shift = energy_shift(sys, v, n, 1.0)
        others = [k for k in range(4) if k != n]
        o2 = sum(abs(w[n, k]) ** 2 / (e[n] - e[k]) for k in others)
        o3 = sum(
            (w[n, k] * w[k, l] * w[l, n]).real / ((e[n] - e[k]) * (e[n] - e[l]))
            for k in others
            for l in others
        ) - w[n, n].real * sum(abs(w[n, k]) ** 2 / (e[n] - e[k]) ** 2 for k in others)
        assert shift.order1 == pytest.approx(w[n, n].real, abs=1e-14)
        assert shift.order2 == pytest.approx(o2, abs=1e-13)
        assert shift.order3 == pytest.approx(o3, abs=1e-13)

    def test_total_composes_orders(self):
        sys, v = seeded_problem(115, 3)
        s = energy_shift(sys, v, 0, 0.2)
        assert s.total == pytest.approx(
            0.2 * s.order1 + 0.04 * s.order2 + 0.008 * s.order3, abs=1e-15
        )

    def test_basis_rotation_leaves_shift(self):
        # the series depends on V only through its projection onto the
        # eigenbasis, so conjugating both must leave every order
        rng = rng_for(116)
        q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        energies = [0.0, 1.3, 2.9]
        plain = EigenSystem.standard(energies)
        rotated = EigenSystem(energies, [StateVector(q[:, k]) for k in range(3)])
        v = random_hermitian(rng, 3)
        v_rot = Observable(q @ v.entries @ q.conj().T)
        a = energy_shift(plain, v, 1, 0.1)
        b = energy_shift(rotated, v_rot, 1, 0.1)
        assert b.order1 == pytest.approx(a.order1, abs=1e-12)
        assert b.order2 == pytest.approx(a.order2, abs=1e-12)
        assert b.order3 == pytest.approx(a.order3, abs=1e-12)

    @pytest.mark.parametrize("s", [1e3, 1e4, 1e6])
    def test_third_order_scales_as_the_cube(self, s):
        # The reality check on the third-order double sum is relative to
        # the size of its terms, which grows as |V|^3 like its roundoff.
        sys = EigenSystem.standard([0.0, 1.0, 2.5, 4.0])
        v = random_hermitian(rng_for(118), 4)
        scaled = energy_shift(sys, Observable(s * v.entries), 1, 0.1).order3
        assert scaled == pytest.approx(s**3 * energy_shift(sys, v, 1, 0.1).order3, rel=1e-12)

    def test_level_index_checked(self):
        sys, v = seeded_problem(117, 3)
        with pytest.raises(ValueError):
            energy_shift(sys, v, 3, 0.1)


class TestPerturbedState:
    def test_residual_is_third_order(self):
        sys, v = seeded_problem(118, 4)
        h0 = np.diag(sys.energies)
        res = []
        for lam in (0.1, 0.05):
            state = perturbed_state(sys, v, 0, lam)
            energy = sys.energies[0] + energy_shift(sys, v, 0, lam).total
            h = h0 + lam * np.asarray(v.entries)
            res.append(
                np.linalg.norm(h @ state.components - energy * state.components)
            )
        assert res[0] / res[1] == pytest.approx(8.0, abs=1.5)

    def test_intermediate_normalization(self):
        sys, v = seeded_problem(119, 3)
        state = perturbed_state(sys, v, 1, 0.2)
        overlap = np.vdot(sys.basis_matrix[1], state.components)
        assert overlap == pytest.approx(1.0 + 0.0j, abs=1e-14)

    @pytest.mark.parametrize(
        "make,seed,dim,n", [(seeded_problem, 125, 9, 4), (rotated_problem, 126, 7, 0)]
    )
    def test_matches_loop_oracle(self, make, seed, dim, n):
        sys, v = make(seed, dim)
        for coupling in (0.3, -1.7):
            np.testing.assert_allclose(
                perturbed_state(sys, v, n, coupling).components,
                perturbed_state_oracle(sys, v, n, coupling),
                rtol=1e-13,
            )

    def test_zero_coupling_returns_reference(self):
        sys, v = seeded_problem(120, 3)
        state = perturbed_state(sys, v, 2, 0.0)
        np.testing.assert_allclose(state.components, sys.basis_matrix[2], atol=1e-15)


class TestPhaseTermTable:
    def test_rows_are_k_major_and_antisymmetric(self):
        sys, v = seeded_problem(121, 4)
        table = third_order_phase_terms(sys, v, 0)
        assert isinstance(table, PhaseTermTable)
        pairs = table_pairs(table)
        assert pairs == sorted(pairs)
        by_pair = {pair: r for r, pair in enumerate(pairs)}
        for (k, l), r in by_pair.items():
            mirror = by_pair[(l, k)]
            assert table.modulus[mirror] == pytest.approx(table.modulus[r], rel=1e-12)
            assert table.denominator[mirror] == pytest.approx(table.denominator[r], rel=1e-12)
            if k != l:
                assert wrapped_distance(table.gamma_v[mirror], -table.gamma_v[r]) < 1e-12

    def test_diagonal_rows_have_real_triple(self):
        sys, v = seeded_problem(122, 3)
        table = third_order_phase_terms(sys, v, 1)
        for k, l, gamma in zip(table.k, table.l, table.gamma_v):
            if k == l:
                # V_nk V_kk V_kn = |V_nk|^2 V_kk is real
                assert abs(math.sin(gamma)) < 1e-12

    def test_reconstruct_recovers_double_sum(self):
        sys, v = seeded_problem(123, 4)
        n = 2
        shift = energy_shift(sys, v, n, 1.0)
        w = np.asarray(v.entries)
        e = sys.energies
        others = [k for k in range(4) if k != n]
        correction = w[n, n].real * sum(
            abs(w[n, k]) ** 2 / (e[n] - e[k]) ** 2 for k in others
        )
        got = third_order_phase_terms(sys, v, n).reconstruct()
        assert got.imag == pytest.approx(0.0, abs=1e-12)
        assert got.real == pytest.approx(shift.order3 + correction, abs=1e-12)

    def test_gauge_invariance_of_gamma(self):
        # re-phasing the eigenbasis shifts individual element Args but not
        # the closed triple
        rng = rng_for(124)
        energies = [0.0, 1.1, 2.7]
        v = random_hermitian(rng, 3)
        plain = EigenSystem.standard(energies)
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=3))
        basis = [StateVector(phases[k] * np.eye(3)[k]) for k in range(3)]
        rephased = EigenSystem(energies, basis)
        ta = third_order_phase_terms(plain, v, 0)
        tb = third_order_phase_terms(rephased, v, 0)
        a = dict(zip(table_pairs(ta), ta.gamma_v))
        b = dict(zip(table_pairs(tb), tb.gamma_v))
        assert a.keys() == b.keys()
        for key in a:
            assert wrapped_distance(a[key], b[key]) < 1e-12

    def test_real_potential_rows_carry_zero_or_pi(self):
        sys = EigenSystem.standard([0.0, 1.0, 2.3])
        v = Observable([[0.2, 0.5, -0.1], [0.5, 0.0, 0.3], [-0.1, 0.3, 0.4]])
        for gamma in third_order_phase_terms(sys, v, 0).gamma_v:
            assert min(abs(gamma), abs(abs(gamma) - math.pi)) < 1e-12

    def test_vanishing_triples_skipped(self):
        sys = EigenSystem.standard([0.0, 1.0, 2.0])
        v = Observable([[0.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        # V_02 = 0 removes every pair touching level 2
        pairs = table_pairs(third_order_phase_terms(sys, v, 0))
        assert pairs == [(1, 1)]

    def test_vectorised_wrap_matches_wrap_angle(self):
        edges = [k * math.pi / 2 for k in range(-4, 5)]
        edges += [np.nextafter(x, d) for x in edges for d in (-np.inf, np.inf)]
        angles = np.clip(edges + list(rng_for(133).uniform(-7.0, 7.0, 200)), -2 * math.pi, 2 * math.pi)
        assert _wrap_angles(angles).tolist() == [wrap_angle(x) for x in angles.tolist()]

    def test_columns_are_read_only(self):
        sys, v = seeded_problem(127, 4)
        table = third_order_phase_terms(sys, v, 1)
        for col in (table.k, table.l, table.modulus, table.gamma_v, table.denominator):
            assert not col.flags.writeable

    @pytest.mark.parametrize(
        "make,seed,dim,n,tol_zero",
        [
            (seeded_problem, 128, 12, 5, 1e-12),
            (zeroed_problem, 129, 10, 0, 1e-12),
            (zeroed_problem, 130, 11, 7, 0.05),
            (rotated_problem, 131, 8, 3, 1e-12),
        ],
    )
    def test_matches_loop_oracle(self, make, seed, dim, n, tol_zero):
        sys, v = make(seed, dim)
        tol = ToleranceConfig(tol_zero=tol_zero)
        rows = third_order_rows_oracle(sys, v, n, tol_zero)
        if make is zeroed_problem:
            assert len(rows) < (dim - 1) ** 2
        assert_table_matches_rows(third_order_phase_terms(sys, v, n, tol=tol), rows)

    def test_negative_real_triples_carry_exactly_pi(self):
        rng = rng_for(132)
        m = rng.uniform(-1.0, 1.0, size=(6, 6))
        sys = EigenSystem.standard(np.arange(6.0))
        v = Observable((m + m.T) / 2.0)
        w = np.asarray(v.entries).real
        table = third_order_phase_terms(sys, v, 2)
        assert_table_matches_rows(table, third_order_rows_oracle(sys, v, 2, 1e-12))
        signs = [w[2, k] * w[k, l] * w[l, 2] for k, l in table_pairs(table)]
        assert any(x < 0.0 for x in signs) and any(x > 0.0 for x in signs)
        for sign, gamma in zip(signs, table.gamma_v.tolist()):
            assert gamma == (math.pi if sign < 0.0 else 0.0)
