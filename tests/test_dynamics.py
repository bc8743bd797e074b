"""Time evolution, projective cycles, closed two-level forms, Dyson series."""

import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    HADAMARD,
    SWAP_X,
    bloch_state,
    exact_survival,
    ordered_triple_quad,
    outputs_under_both_dispatches,
    random_hermitian,
    rng_for,
)
from ggphase import (
    CycleResult,
    NonOrthogonalBasis,
    Observable,
    Overflow,
    StateVector,
    TwoLevelParams,
    UndefinedPhase,
    evolve,
    f_mn,
    projective_cycle_amplitude,
    survival_amplitude,
    two_level_phase,
    generalized_phase_chain,
    wrap_angle,
    wrapped_distance,
)
from ggphase import dynamics
from ggphase.dynamics import _CLUSTER_DIAMETER, _ordered_exponential_integral


def scalar_ordered_integral(freqs, t: float) -> complex:
    """One row at a time, the divided-difference dynamic program over node
    intervals: the shifted Taylor series on intervals no wider than
    _CLUSTER_DIAMETER, the recursion on wider ones."""
    if t == 0.0:
        return 0.0j
    nodes = 1j * np.concatenate([[0.0], np.cumsum(freqs)]) * t
    nodes = nodes[np.argsort(nodes.imag)]

    def series(cluster):
        n = len(cluster) - 1
        center = complex(cluster.mean())
        h = [1.0 + 0.0j] + [0.0j] * 29
        for x in cluster - center:
            for m in range(1, 30):
                h[m] += x * h[m - 1]
        return cmath.exp(center) * sum(h[m] / math.factorial(m + n) for m in range(29, -1, -1))

    table = {(i, i): cmath.exp(z) for i, z in enumerate(nodes)}
    for span in range(1, len(nodes)):
        for i in range(len(nodes) - span):
            j = i + span
            if abs(nodes[j] - nodes[i]) <= _CLUSTER_DIAMETER:
                table[i, j] = series(nodes[i : j + 1])
            else:
                table[i, j] = (table[i + 1, j] - table[i, j - 1]) / (nodes[j] - nodes[i])
    return t ** len(freqs) * table[0, len(nodes) - 1]


def taylor_links(h: np.ndarray, rows: np.ndarray, cols: np.ndarray, eps: float) -> np.ndarray:
    """<b_a|exp(-i eps H)|b_b> for each pair of columns of rows and cols, as
    the Taylor sum over k = 0 .. 6 of (-i eps)^k / k! <b_a|H^k|b_b>. For
    eps |H| <= 1e-2 the terms past the overlap shrink geometrically, and the
    dropped tail is below 1e-14 of the first of them."""
    total, power = np.einsum("ij,ij->j", rows.conj(), cols), cols.astype(complex)
    for k in range(1, 7):
        power = h @ power
        total = total + (-1j * eps) ** k / math.factorial(k) * np.einsum("ij,ij->j", rows.conj(), power)
    return total


class TestUnitaryAndEvolve:
    def test_evolve_is_unitary_and_inverts(self):
        rng = rng_for(90)
        h = random_hermitian(rng, 4)
        m = evolve(h, 0.7)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(evolve(h, -0.7) @ m, np.eye(4), atol=1e-12)

    def test_eigenstate_picks_up_energy_phase(self):
        h = Observable([[0.3, 0.0], [0.0, -1.1]])
        state = evolve(h, 2.0) @ np.array([1.0, 0.0])
        assert state[0] == pytest.approx(cmath.exp(-0.6j), abs=1e-14)

    def test_zero_time_is_identity(self):
        rng = rng_for(91)
        np.testing.assert_allclose(evolve(random_hermitian(rng, 3), 0.0), np.eye(3), atol=1e-15)

    def test_the_propagator_is_read_only(self):
        u = evolve(Observable([[0.3, 0.1], [0.1, -1.1]]), 0.5)
        assert isinstance(u, np.ndarray) and u.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 1.0

    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_off_diagonal_entries_match_the_taylor_sum(self, dim, eps):
        # relative to the largest entry: eigh's backward error is of that size
        # in every entry, so a small entry of H is known no better in any form
        h = random_hermitian(rng_for(880 + dim), dim)
        eye = np.eye(dim)
        rows, cols = np.nonzero(~np.eye(dim, dtype=bool))
        oracle = taylor_links(np.asarray(h.entries), eye[:, rows], eye[:, cols], eps)
        error = np.abs(evolve(h, eps)[rows, cols] - oracle).max()
        assert error <= 1e-13 * np.abs(oracle).max()


class TestProjectiveCycle:
    @staticmethod
    def axes(dim):
        return [StateVector.basis_vector(dim, k) for k in range(3)]

    def test_extracted_phase_converges_to_chain_arg(self):
        rng = rng_for(92)
        h = random_hermitian(rng, 3)
        m = np.asarray(h.entries)
        limit = np.angle(m[0, 2] * m[2, 1] * m[1, 0])
        gaps = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            res = projective_cycle_amplitude(h, self.axes(3), eps)
            gaps.append(wrapped_distance(res.extracted_phase, limit))
        assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.3)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.3)

    def test_amplitude_magnitude_is_cubic_in_epsilon(self):
        rng = rng_for(93)
        h = random_hermitian(rng, 4)
        a1 = abs(projective_cycle_amplitude(h, self.axes(4), 1e-2).amplitude)
        a2 = abs(projective_cycle_amplitude(h, self.axes(4), 5e-3).amplitude)
        assert a1 / a2 == pytest.approx(8.0, abs=0.8)

    def test_real_cyclic_links_extract_zero(self):
        # every link real positive: the chain Arg is 0 and the extracted
        # phase goes to 0 with epsilon
        h = Observable(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]
        )
        res = projective_cycle_amplitude(h, self.axes(3), 1e-3)
        assert abs(res.extracted_phase) < 5e-3

    def test_requires_orthonormal_basis(self):
        rng = rng_for(94)
        h = random_hermitian(rng, 3)
        bad = [
            StateVector([1.0, 0.0, 0.0]),
            StateVector([1.0, 1.0, 0.0]),
            StateVector([0.0, 0.0, 1.0]),
        ]
        with pytest.raises(NonOrthogonalBasis):
            projective_cycle_amplitude(h, bad, 1e-2)

    def test_diagonal_hamiltonian_has_no_cycle(self):
        h = Observable(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(UndefinedPhase):
            projective_cycle_amplitude(h, self.axes(3), 1e-2)

    @pytest.mark.parametrize("seed", [96, 97, 98])
    def test_limit_phase_is_the_chain_phase_of_b0_b2_b1(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(3, 6))
        h = random_hermitian(rng, dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)))
        basis = [StateVector(col) for col in q.T]
        res = projective_cycle_amplitude(h, basis, 1e-3)
        chain = generalized_phase_chain([basis[0], basis[2], basis[1]], h).value
        assert res.limit_phase == chain

    def test_limit_phase_exists_where_the_link_product_overflows(self):
        # each H link is about 1e110, so their product is past the doubles
        h = Observable(1e110 * np.array([[0.5, 1 + 1j, 2], [1 - 1j, -0.5, 1.5j], [2, -1.5j, 0]]))
        axes = self.axes(3)
        res = projective_cycle_amplitude(h, axes, 1e-2)
        assert res.limit_phase == generalized_phase_chain([axes[0], axes[2], axes[1]], h).value
        assert res.limit_phase == -2.356194490192345

    @pytest.mark.parametrize(("zero", "named"), [
        ((0, 2), "<b0|H|b2>"), ((2, 1), "<b2|H|b1>"), ((1, 0), "<b1|H|b0>"),
    ])
    def test_vanishing_h_link_is_named(self, zero, named):
        m = np.array([[0.5, 1.0, 2.0], [1.0, -0.5, 1.5], [2.0, 1.5, 0.0]])
        m[zero] = m[zero[::-1]] = 0.0
        with pytest.raises(UndefinedPhase, match=re.escape(named)):
            projective_cycle_amplitude(Observable(m), self.axes(3), 1e-2)

    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_amplitude_matches_the_taylor_links(self, dim, eps):
        # each link is O(eps); formed from O(1) terms it would lose digits as 1/eps
        rng = rng_for(890 + dim)
        h = random_hermitian(rng, dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)))
        chain = q[:, [0, 2, 1]]  # the links <b0|U|b2>, <b2|U|b1>, <b1|U|b0>
        oracle = np.prod(taylor_links(np.asarray(h.entries), chain, np.roll(chain, -1, axis=1), eps))
        amplitude = projective_cycle_amplitude(h, [StateVector(col) for col in q.T], eps).amplitude
        assert abs(amplitude - oracle) <= 1e-13 * abs(oracle)

    def test_result_carries_inputs(self):
        rng = rng_for(95)
        h = random_hermitian(rng, 3)
        res = projective_cycle_amplitude(h, self.axes(3), 2e-3)
        assert isinstance(res, CycleResult)
        assert res.epsilon == 2e-3
        assert res.extracted_phase == wrap_angle(
            cmath.phase(res.amplitude) + 1.5 * math.pi
        )


class TestTwoLevelClosedForms:
    @staticmethod
    def chain_phase(p: TwoLevelParams, obs: Observable) -> float:
        states = [bloch_state(0.0, 0.0), bloch_state(p.theta, p.phi), bloch_state(math.pi, 0.0)]
        return generalized_phase_chain(states, obs).value

    def test_swap_matches_chain_everywhere(self):
        for theta in np.linspace(0.15, 2 * math.pi - 0.15, 17):
            if abs(theta - math.pi) < 0.2:
                continue
            for phi in np.linspace(-3.0, 3.0, 9):
                p = TwoLevelParams(float(theta), float(phi))
                want = self.chain_phase(p, SWAP_X)
                assert wrapped_distance(two_level_phase("x", p), want) < 1e-12

    def test_hadamard_matches_chain_everywhere(self):
        for theta in np.linspace(0.1, 2 * math.pi - 0.1, 15):
            for phi in np.linspace(-3.0, 3.0, 9):
                p = TwoLevelParams(float(theta), float(phi))
                mod = math.hypot(math.cos(theta), math.sin(theta) * math.sin(phi))
                if mod < 1e-3:
                    continue
                want = self.chain_phase(p, HADAMARD)
                assert wrapped_distance(two_level_phase("hadamard", p), want) < 1e-12

    def test_swap_branch_jump(self):
        phi = 0.7
        upper = two_level_phase("x", TwoLevelParams(1.0, phi))
        lower = two_level_phase("x", TwoLevelParams(math.pi + 1.0, phi))
        assert upper == pytest.approx(phi)
        assert lower == pytest.approx(wrap_angle(math.pi + phi))

    def test_hadamard_two_argument_branch(self):
        # at theta just past pi/2 the single-argument arctan form would fold
        # back; atan2 keeps the second quadrant
        val = two_level_phase("hadamard", TwoLevelParams(2.0, 0.5))
        assert val == pytest.approx(math.atan2(math.sin(2.0) * math.sin(0.5), math.cos(2.0)))
        assert val > math.pi / 2

    def test_swap_undefined_on_poles(self):
        for theta in (0.0, math.pi, 2 * math.pi):
            with pytest.raises(UndefinedPhase):
                two_level_phase("x", TwoLevelParams(theta, 0.3))

    def test_hadamard_undefined_point(self):
        with pytest.raises(UndefinedPhase):
            two_level_phase("hadamard", TwoLevelParams(math.pi / 2, 0.0))
        # cos(theta) = 0 alone is fine when sin(phi) != 0
        assert two_level_phase(
            "hadamard", TwoLevelParams(math.pi / 2, 0.4)
        ) == pytest.approx(math.pi / 2)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            TwoLevelParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            TwoLevelParams(1.0, 4.0)


class TestOrderedExponentialIntegral:
    def test_zero_frequencies_closed_form(self):
        assert f_mn(0.0, 0.0, 0.0, 1.3) == pytest.approx(1.3 ** 3 / 6.0, abs=1e-15)

    def test_spec_point_against_quadrature(self):
        got = f_mn(1.0, -0.5, 2.0, 1.3)
        want = ordered_triple_quad(1.0, -0.5, 2.0, 1.3)
        assert abs(got - want) < 1e-9

    @pytest.mark.parametrize(
        "freqs",
        [
            (0.9, 0.9, 0.9),
            (1.0, 1.0 + 1e-9, 1.0 - 1e-9),
            (2.0, -2.0, 0.0),
            (1e-7, -1e-7, 3.0),
            (4.0, 1.7, -2.9),
        ],
    )
    def test_matches_quadrature_including_degenerate(self, freqs):
        for t in (0.4, 1.1):
            got = f_mn(*freqs, t)
            want = ordered_triple_quad(*freqs, t)
            assert abs(got - want) < 1e-11

    def test_negating_frequencies_conjugates(self):
        rng = rng_for(96)
        for _ in range(10):
            w = rng.uniform(-3, 3, size=3)
            t = float(rng.uniform(0.2, 1.5))
            left = f_mn(-w[0], -w[1], -w[2], t)
            right = f_mn(w[0], w[1], w[2], t)
            assert left == pytest.approx(right.conjugate(), abs=1e-13)

    def test_negative_time(self):
        got = f_mn(0.7, -0.3, 1.1, -0.9)
        want = ordered_triple_quad(0.7, -0.3, 1.1, -0.9)
        assert abs(got - want) < 1e-11


class TestBatchedExponentialIntegral:
    """The batched divided-difference path picks the series or the recursion
    per row and per node interval; these pin that choice from both sides."""

    # patterns in units of a = width / t: the nodes {0, a t, ...} then sit at
    # multiples of the width, several of them tied exactly
    PATTERNS = [
        (1.0, 1.0, 1.0),
        (1.0, -1.0, 1.0),
        (1.0, 0.0, -1.0),
        (2.0, -1.0, -1.0),
        (1.0, 1.0, -2.0),
        (0.0, 0.0, 1.0),
    ]

    def test_batch_equals_one_row_calls_bit_for_bit(self):
        rng = rng_for(106)
        rows = [tuple(rng.uniform(-3.0, 3.0, size=3)) for _ in range(40)]
        rows += [tuple(rng.uniform(-0.02, 0.02, size=3)) for _ in range(40)]
        rows += [(w, w, w) for w in (0.0, 0.03, 0.06, 1e-9)]
        rows += [(0.01, 2.0, 0.01), (2.0, 0.01, -2.0), (0.5, -0.5, 0.0)]
        order = rng.permutation(len(rows))
        freqs = np.array(rows)[order]
        for t in (0.9, -0.4):
            batch = _ordered_exponential_integral(freqs, t)
            for row, value in zip(freqs, batch):
                assert complex(value) == f_mn(*row, t)

    def test_matches_scalar_dynamic_program(self):
        # same arithmetic row by row, up to FMA contraction, which the
        # recursion above a cluster can amplify to ~1e-13
        rng = rng_for(107)
        rows = [tuple(rng.uniform(-3.0, 3.0, size=3) * s) for s in (1e-3, 1e-2, 0.1, 1.0, 10.0)
                for _ in range(20)]
        rows += [tuple(np.array(p) * w) for p in self.PATTERNS for w in (0.03, 0.049, 0.051, 0.2)]
        freqs = np.array(rows)
        for t in (1.3, -0.9, 0.04, 5.0):
            want = [scalar_ordered_integral(row, t) for row in freqs]
            np.testing.assert_allclose(_ordered_exponential_integral(freqs, t), want, rtol=1e-12)

    @pytest.mark.parametrize("width", [0.98 * _CLUSTER_DIAMETER, 1.02 * _CLUSTER_DIAMETER])
    @pytest.mark.parametrize("t", [0.8, -1.3])
    def test_threshold_widths_match_quadrature(self, width, t):
        a = width / t
        freqs = np.array(self.PATTERNS) * a
        batch = _ordered_exponential_integral(freqs, t)
        for row, value in zip(freqs, batch):
            assert abs(value - ordered_triple_quad(*row, t)) < 1e-9

    def test_series_length_is_the_smallest_under_its_bound(self):
        # term m of a tight row's series is at most D^m / m! of the first
        terms = dynamics._SERIES_TERMS
        bound = [_CLUSTER_DIAMETER**m / math.factorial(m) for m in (terms, terms - 1)]
        assert bound[0] < 2.0**-64 <= bound[1]

    def test_thirty_series_terms_give_the_same_bits(self, monkeypatch):
        # near-coincident frequencies put node intervals on both sides of the
        # cluster diameter, some after a wide first gap; the terms the bound
        # drops are too small to move a single bit of any row
        rng = rng_for(108)
        blocks = []
        for t in (0.7, -1.3, 40.0, -250.0):
            for width in (0.98, 1.0, 1.02):
                a = width * _CLUSTER_DIAMETER / abs(t)
                blocks.append((np.array(self.PATTERNS) * a, t))
                for k in (1, 2, 3):
                    freqs = rng.uniform(-1.0, 1.0, size=(300, k)) * a
                    freqs[100:200, 0] += rng.choice([-2.0, 1.0, 3.5], size=100)
                    blocks.append((freqs, t))
        assert sum(len(freqs) for freqs, _ in blocks) >= 10_000
        short = [_ordered_exponential_integral(freqs, t) for freqs, t in blocks]
        monkeypatch.setattr(dynamics, "_SERIES_TERMS", 30)
        for (freqs, t), want in zip(blocks, short):
            assert _ordered_exponential_integral(freqs, t).tobytes() == want.tobytes()

    def test_zero_time_is_zero(self):
        freqs = np.array(self.PATTERNS) * _CLUSTER_DIAMETER
        batch = _ordered_exponential_integral(freqs, 0.0)
        assert np.all(batch == 0.0)
        for row in freqs:
            assert abs(f_mn(*row, 0.0) - ordered_triple_quad(*row, 0.0)) < 1e-9


class TestSurvivalAmplitude:
    @staticmethod
    def seeded_system(seed, dim):
        rng = rng_for(seed)
        h0 = Observable(np.diag(np.sort(rng.uniform(-2.0, 2.0, size=dim))))
        v = random_hermitian(rng, dim, scale=0.4)
        return h0, v

    def test_order_zero_and_one(self):
        h0, v = self.seeded_system(97, 3)
        assert survival_amplitude(h0, v, 0, 0.5, order=0) == pytest.approx(1.0 + 0.0j)
        got = survival_amplitude(h0, v, 0, 0.5, order=1)
        want = 1.0 - 0.5j * v.entries[0, 0]
        assert got == pytest.approx(want, abs=1e-14)

    def test_third_order_error_scales_sixteenfold(self):
        h0, v = self.seeded_system(98, 4)
        errs = []
        for t in (0.2, 0.1):
            got = survival_amplitude(h0, v, 1, t, order=3)
            errs.append(abs(got - exact_survival(h0, v, 1, t)))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    @pytest.mark.parametrize("t", [0.7, -3.0, 40.0])
    def test_a_common_level_offset_keeps_the_bits(self, t):
        # the offset levels are exact doubles, so every w_pq is the same
        # double with and without 1e9; only t (E_p - E_q) is ever rounded
        levels = np.array([0.0, 0.75, -1.25, 2.5, 0.8125])
        _, v = self.seeded_system(96, 5)
        v = Observable(v.entries / abs(t))
        got = survival_amplitude(Observable(np.diag(levels + 1e9)), v, 1, t)
        assert got == survival_amplitude(Observable(np.diag(levels)), v, 1, t)

    def test_second_order_error_scales_eightfold(self):
        h0, v = self.seeded_system(99, 3)
        errs = []
        for t in (0.2, 0.1):
            got = survival_amplitude(h0, v, 0, t, order=2)
            errs.append(abs(got - exact_survival(h0, v, 0, t)))
        assert errs[0] / errs[1] == pytest.approx(8.0, abs=1.5)

    def test_dim_64_within_dyson_remainder_bound(self):
        # after third order the Dyson tail is at most e^x x^4 / 24 with
        # x = t ||V||; here the second-order amplitude misses that bound, so
        # the check sees the third-order term
        h0, v = self.seeded_system(104, 64)
        t = 0.02
        x = t * np.linalg.norm(v.entries, 2)
        bound = math.exp(x) * x**4 / 24.0
        exact = exact_survival(h0, v, 7, t)
        assert abs(survival_amplitude(h0, v, 7, t) - exact) <= bound
        assert abs(survival_amplitude(h0, v, 7, t, order=2) - exact) > bound

    def test_dim_64_allocation_peak(self):
        # the series keeps one (_SERIES_TERMS, P) table over the P tight
        # node intervals and one scratch row, not a temporary per term
        h0, v = self.seeded_system(104, 64)
        tracemalloc.start()
        try:
            survival_amplitude(h0, v, 7, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_zero_time_is_one(self):
        h0, v = self.seeded_system(100, 3)
        assert survival_amplitude(h0, v, 2, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_requires_diagonal_h0(self):
        rng = rng_for(101)
        h0 = random_hermitian(rng, 3)
        v = random_hermitian(rng, 3)
        with pytest.raises(ValueError):
            survival_amplitude(h0, v, 0, 0.3)

    def test_order_range_checked(self):
        h0, v = self.seeded_system(102, 3)
        with pytest.raises(ValueError):
            survival_amplitude(h0, v, 0, 0.3, order=4)

    def test_level_index_checked(self):
        h0, v = self.seeded_system(103, 3)
        with pytest.raises(ValueError):
            survival_amplitude(h0, v, 5, 0.3)


def batch_third_order_table(energies: np.ndarray, i: int, t: float) -> np.ndarray:
    """f_mn(w_im, w_mn, w_ni, t) / t^3 of every level pair (m, n), the
    integrals at 1 of the frequencies t w, as one (dim^2, 3) row batch of the
    divided-difference dynamic program: the reference for the level-pair
    difference quotients."""
    dim = len(energies)
    w_im = energies[i] - energies
    w_mn = energies[:, None] - energies[None, :]
    w_ni = energies - energies[i]
    freqs = np.stack(np.broadcast_arrays(w_im[:, None], w_mn, w_ni[None, :]), axis=-1)
    return _ordered_exponential_integral(t * freqs.reshape(dim * dim, 3), 1.0).reshape(dim, dim)


class TestThirdOrderFromSecondOrder:
    """The third order takes each level pair wider than the cluster diameter
    from a difference quotient of two second-order values, and the tight
    pairs from the batch; these compare both with the dim^2-row batch."""

    TIMES = [0.0, 1e-3, 1.0, -0.9, 40.0]

    @staticmethod
    def stressed_system(seed, t, dim=24):
        """Levels around level 0 with exact degeneracies (m = i and m != n)
        and gaps of 0.98 and 1.02 cluster widths, the rest at random; V
        scaled to |t| ||V|| = 0.5, so the third order carries weight."""
        rng = rng_for(seed)
        width = _CLUSTER_DIAMETER / abs(t) if t else _CLUSTER_DIAMETER
        a = float(rng.uniform(2.0, 3.0)) * width
        offsets = [0.0, 0.0, 0.98 * width, -1.02 * width, a, a, a + 0.98 * width, a - 1.02 * width]
        offsets += list(rng.uniform(-4.0, 4.0, size=dim - len(offsets)) * width)
        energies = float(rng.uniform(-1.0, 1.0)) + np.array(offsets)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m += m.conj().T
        m *= 0.5 / ((abs(t) or 1.0) * np.linalg.norm(m, 2))
        return Observable(np.diag(energies)), Observable(m)

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("seed", [110, 111, 112])
    def test_amplitude_matches_the_batch(self, seed, t):
        h0, v = self.stressed_system(seed, t)
        energies = np.real(np.diagonal(h0.entries))
        vv = t * v.entries
        terms = vv[0, :, None] * vv * vv[None, :, 0] * batch_third_order_table(energies, 0, t)
        want = survival_amplitude(h0, v, 0, t, order=2) + 1j * complex(
            math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel())
        )
        got = survival_amplitude(h0, v, 0, t)
        assert abs(got - want) <= 1e-13 * np.abs(terms).sum()

    @pytest.mark.parametrize("t", TIMES)
    def test_tight_pairs_equal_the_batch_bit_for_bit(self, t):
        h0, _ = self.stressed_system(113, t)
        energies = np.real(np.diagonal(h0.entries))
        w_im = energies[0] - energies
        f2 = _ordered_exponential_integral(np.stack([t * w_im, -t * w_im], axis=1), 1.0)
        got = dynamics._third_order_integrals(energies, 0, f2, t)
        want = batch_third_order_table(energies, 0, t)
        tight = np.abs(t * (w_im[:, None] - w_im[None, :])) <= _CLUSTER_DIAMETER
        assert tight.sum() > len(energies)  # off-diagonal tight pairs are present
        assert got[tight].tobytes() == want[tight].tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())

    def test_batch_runs_on_tight_pairs_only(self, monkeypatch):
        # dim 64 with levels spread over [-2, 2]: the batch sees the dim
        # second-order rows and then only the tight pairs, not dim^2 rows
        h0, v = TestSurvivalAmplitude.seeded_system(104, 64)
        energies = np.real(np.diagonal(h0.entries))
        w_im = energies[7] - energies
        tight = int((np.abs(w_im[:, None] - w_im[None, :]) <= _CLUSTER_DIAMETER).sum())
        rows = []
        batch = dynamics._ordered_exponential_integral

        def counted(freqs, t):
            rows.append(len(freqs))
            return batch(freqs, t)

        monkeypatch.setattr(dynamics, "_ordered_exponential_integral", counted)
        survival_amplitude(h0, v, 7, 1.0)
        assert rows == [64, tight]
        assert tight < 4 * 64


class TestLargeTimes:
    """Past |t|^3 ~ 1e308 the batch scales its table by powers of two: an
    integral that is a double comes back finite, any other raises Overflow
    naming t, and neither leaks an OverflowError or a RuntimeWarning."""

    @staticmethod
    def distinct_node_sum(freqs, t):
        """sum_a exp(i t B_a) / prod_{b != a} i (B_a - B_b) over distinct
        partial sums B, in which t^3 cancels, on the same rounded phases."""
        partial = np.concatenate([[0.0], np.cumsum(freqs)])
        total = 0j
        for a, ba in enumerate(partial):
            denom = 1.0 + 0.0j
            for b, bb in enumerate(partial):
                if b != a:
                    denom *= 1j * (ba - bb)
            total += cmath.exp(1j * (ba * t)) / denom
        return total

    @pytest.mark.parametrize("t", [1e102, 1e103, -1e103, 3.7e150, 1e300])
    @pytest.mark.parametrize("freqs", [(1.0, 2.0, 3.0), (0.5, -2.0, 4.0), (-1.25, 3.0, 0.75)])
    def test_matches_the_distinct_node_sum(self, freqs, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_mn(*freqs, t)
        want = self.distinct_node_sum(freqs, t)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_coincident_frequencies_up_to_the_largest_double(self):
        # f_mn(0, 0, 0, t) = t^3 / 6, a double up to t = (6 DBL_MAX)^(1/3)
        t = 1.02e103
        assert f_mn(0.0, 0.0, 0.0, t) == pytest.approx(t / 6.0 * t * t, rel=1e-14)
        with pytest.raises(Overflow, match=re.escape("t = 1.03e+103")):
            f_mn(0.0, 0.0, 0.0, 1.03e103)

    @pytest.mark.parametrize("freqs", [
        (0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (1.0, -1.0, 0.0), (0.0, 1.0, -1.0), (1e-3, 1e3, 1.0),
    ])
    def test_finite_or_overflow_at_every_scale(self, freqs):
        for t in [s * 10.0**p for p in range(0, 309, 7) for s in (1.0, -1.0)] + [1.7e308]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = f_mn(*freqs, t)
                except Overflow as exc:
                    assert f"t = {t}" in str(exc)
                else:
                    assert cmath.isfinite(value)

    def test_survival_at_large_time(self):
        h0 = Observable(np.diag([0.0, 1.0, 2.5]))
        v = Observable(np.full((3, 3), 1e-120))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(survival_amplitude(h0, v, 0, 1e100) - 1.0) < 1e-15
            # the m = n = i integral t^3 / 6 is not a double, but its term is
            # about (t V)^3 / 6 = 1e-31 next to the first-order -i t V = -1e-10i
            assert abs(survival_amplitude(h0, v, 0, 1e110) - (1.0 - 1e-10j)) < 1e-15

    def test_degenerate_levels_near_the_largest_double(self):
        # t E is not a double, but every phase t (E_m - E_n) is 0
        v = Observable(np.full((3, 3), 1e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = survival_amplitude(Observable(np.diag([1e300] * 3)), v, 0, 1e10)
        assert got == survival_amplitude(Observable(np.zeros((3, 3))), v, 0, 1e10)
        assert cmath.isfinite(got) and got != 1.0

    def test_overflowing_amplitude_is_typed(self):
        h0 = Observable(np.diag([0.0, 1.0, 2.5]))
        v = Observable(np.full((3, 3), 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match=re.escape("t = 1.0")):
                survival_amplitude(h0, v, 0, 1.0)


SURVIVAL_VALUES = """
import numpy as np
from ggphase import Observable, survival_amplitude
for seed in range(30):
    rng = np.random.default_rng(seed)
    h0 = Observable(np.diag(np.sort(rng.uniform(-2.0, 2.0, size=64))))
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    print(repr(survival_amplitude(h0, Observable(0.1 * (a + a.conj().T)), seed, 1.0)))
"""


def test_survival_values_do_not_depend_on_simd_dispatch():
    default, reduced = outputs_under_both_dispatches(SURVIVAL_VALUES)
    assert len(default.splitlines()) == 30
    assert default == reduced
