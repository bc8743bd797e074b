"""Discretized curves, the generalized connection, and null-curve holonomy."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bloch_curve_arrays,
    bloch_state,
    chain_arg_oracle,
    connection_value_oracle,
    null_curve_oracle,
    null_segment_connection_oracle,
    random_hermitian,
    random_positive_definite,
    random_state,
    rng_for,
    smooth_two_level_path,
    trapezoid,
)
from ggphase import (
    DEFAULT_TOLS,
    DomainError,
    InvalidArgument,
    Observable,
    OrthogonalEndpoints,
    Overflow,
    ParamCurve,
    SingularConnection,
    StateVector,
    UndefinedPhase,
    connection_samples,
    curve_phase,
    gauge_transform,
    generalized_phase_chain,
    geodesic_null_curve,
    loop_holonomy,
    o_null_curve,
    reparametrize,
    triangle_holonomy,
    wrapped_distance,
)
from ggphase import _kernels
from ggphase import curve as curve_module
from ggphase.cli import main
from ggphase.curve import _null_segment, _segment_samples

X = Observable([[0.0, 1.0], [1.0, 0.0]])


def great_circle_curve(count: int, phi: float, start: float = 0.0, stop: float = math.pi):
    s = np.linspace(start, stop, count)
    params, states = bloch_curve_arrays(s, s, np.full(count, phi))
    return ParamCurve(params, states)


class TestParamCurve:
    def test_rejects_non_monotone_params(self):
        states = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            ParamCurve([0.0, 0.2, 0.2], states)

    def test_rejects_short_curves(self):
        with pytest.raises(ValueError):
            ParamCurve([0.0, 1.0], np.ones((2, 2), dtype=complex))

    def test_rejects_zero_sample(self):
        states = np.ones((3, 2), dtype=complex)
        states[1] = 0.0
        with pytest.raises(ValueError, match="sample 1 has vanishing norm"):
            ParamCurve([0.0, 0.5, 1.0], states)

    def test_accepts_column_strided_states(self):
        wide = np.arange(18, dtype=float).reshape(3, 6) * (1 + 1j)
        curve = ParamCurve([0.0, 0.5, 1.0], wide[:, ::2])
        np.testing.assert_array_equal(curve.states, wide[:, ::2])
        assert curve.dim == 3

    def test_state_accessor_roundtrip(self):
        curve = great_circle_curve(11, 0.3)
        st = curve.state(4)
        np.testing.assert_allclose(st.components, curve.states[4])


class TestCurveOverABasis:
    """A curve stored as (M, r) coefficients over an (r, dim) basis."""

    @staticmethod
    def spanned(rng, count=21, dim=4):
        basis = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        coeffs = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
        return ParamCurve(np.linspace(0.0, 1.0, count), coeffs, basis=basis), coeffs, basis

    def test_states_are_formed_from_the_coefficients(self):
        curve, coeffs, basis = self.spanned(rng_for(1800))
        assert (curve.dim, curve.sample_count) == (4, 21)
        np.testing.assert_array_equal(curve.coeffs, coeffs)
        np.testing.assert_array_equal(curve.states, coeffs @ basis)
        np.testing.assert_array_equal(curve.row(-1), coeffs[-1] @ basis)
        np.testing.assert_array_equal(curve.state(3).components, coeffs[3] @ basis)

    def test_gauge_and_reparametrization_keep_the_basis(self):
        curve, coeffs, basis = self.spanned(rng_for(1801))
        lam = np.linspace(0.0, 2.0, 21)
        gauged = gauge_transform(curve, lam)
        np.testing.assert_array_equal(gauged.basis, basis)
        np.testing.assert_array_equal(gauged.coeffs, np.exp(1j * lam)[:, None] * coeffs)
        moved = reparametrize(curve, np.linspace(0.0, 1.0, 21) ** 2 + np.arange(21))
        assert moved.basis is curve.basis and moved.coeffs is curve.coeffs

    def test_basis_and_coefficients_must_agree(self):
        with pytest.raises(ValueError, match="basis shape"):
            ParamCurve([0.0, 0.5, 1.0], np.ones((3, 2)), basis=np.ones((3, 4)))

    def test_non_finite_basis_is_refused(self):
        with pytest.raises(ValueError, match="basis must have finite entries"):
            ParamCurve([0.0, 0.5, 1.0], np.ones((3, 2)), basis=[[1.0, 0.0], [np.inf, 0.0]])

    def test_vanishing_state_is_named(self):
        # the middle coefficients cancel the two basis rows
        coeffs = [[1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="sample 1 has vanishing norm"):
            ParamCurve([0.0, 0.5, 1.0], coeffs, basis=[[0.6, 0.8j], [0.6, 0.8j]])


class TestConnectionSamples:
    def test_constant_curve_gives_zeros(self):
        states = np.tile(np.array([1.0, 0.5j]), (21, 1))
        curve = ParamCurve(np.linspace(0, 1, 21), states)
        samples = connection_samples(curve, None)
        np.testing.assert_allclose(samples.values, 0.0, atol=1e-14)

    def test_pure_gauge_curve_reads_omega(self):
        omega = 1.7
        s = np.linspace(0.0, 2.0, 401)
        states = np.exp(1j * omega * s)[:, None] * np.array([[0.6, 0.8j]])
        samples = connection_samples(ParamCurve(s, states), None)
        # stencil error on e^{i omega s} is omega^3 h^2 / 6 ~ 2e-5 here
        np.testing.assert_allclose(samples.values, omega, atol=5e-5)

    def test_matches_explicit_stencil_oracle(self):
        rng = rng_for(60)
        s, theta, phi = smooth_two_level_path(rng, 101, x_safe=True)
        params, states = bloch_curve_arrays(s, theta, phi)
        curve = ParamCurve(params, states)
        samples = connection_samples(curve, X)
        for idx in (0, 1, 50, 99, 100):
            want = connection_value_oracle(states, params, X, idx)
            assert samples.values[idx] == pytest.approx(want, abs=1e-13)

    def test_great_circle_connection_closed_form(self):
        # |Psi(s)> = cos(s/2)|0> + e^{i phi} sin(s/2)|1> has
        # A_X(s) = sin(phi) / (2 sin(s) cos(phi))
        phi = 0.4
        curve = great_circle_curve(2001, phi, start=0.5, stop=math.pi - 0.5)
        samples = connection_samples(curve, X)
        s = curve.params[1:-1]
        want = math.sin(phi) / (2 * np.sin(s) * math.cos(phi))
        np.testing.assert_allclose(samples.values[1:-1], want, atol=5e-7)

    def test_interior_denominator_zero_reports_sample(self):
        # the middle sample of this grid sits exactly at theta = pi, where
        # the X-expectation sin(theta)cos(phi) vanishes
        curve = great_circle_curve(41, 0.0, start=math.pi - 1.0, stop=math.pi + 1.0)
        with pytest.raises(SingularConnection) as err:
            connection_samples(curve, X)
        assert err.value.sample_index == 20

    def test_second_order_interior_convergence(self):
        rng = rng_for(61)
        errs = []
        for count in (101, 201, 401):
            s, theta, phi = smooth_two_level_path(rng_for(61), count, x_safe=True)
            params, states = bloch_curve_arrays(s, theta, phi)
            samples = connection_samples(ParamCurve(params, states), X)
            dense_s, dense_t, dense_p = smooth_two_level_path(rng_for(61), 4001, x_safe=True)
            dp, ds_states = bloch_curve_arrays(dense_s, dense_t, dense_p)
            dense = connection_samples(ParamCurve(dp, ds_states), X)
            mid = count // 2  # grids share midpoint sample
            errs.append(abs(samples.values[mid] - dense.values[2000]))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.2)

    def test_integral_and_min_modulus(self):
        a, b = StateVector([1.0, 0.0]), StateVector([0.0, 1.0])
        samples = connection_samples(o_null_curve(a, b, X, M=101), X)
        s, v = samples.params, samples.values
        assert samples.integral == math.fsum((0.5 * (v[1:] + v[:-1]) * np.diff(s)).tolist())
        # <n|X|n> = 2 (x/tau) (1 - x/tau) vanishes at both extrapolated ends,
        # so the smallest direct modulus is at samples 1 and 99
        assert samples.extrapolated == (0, 100)
        assert samples.min_modulus == pytest.approx(2 * 0.01 * 0.99, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_integral_is_invariant_under_huge_and_tiny_parameter_scales(self, scale):
        s, theta, phi = smooth_two_level_path(rng_for(68), 201, x_safe=True)
        params, states = bloch_curve_arrays(s, theta, phi)
        want = connection_samples(ParamCurve(params, states), X).integral
        got = connection_samples(ParamCurve(params * scale, states), X).integral
        assert got == pytest.approx(want, rel=1e-12)


class TestCurvePhase:
    def test_constant_curve_is_zero(self):
        states = np.tile(np.array([1.0, 0.5j]), (21, 1))
        res = curve_phase(ParamCurve(np.linspace(0, 1, 21), states), None)
        assert res.value == pytest.approx(0.0, abs=1e-14)

    def test_pure_gauge_curve_is_zero(self):
        omega, length = 1.3, 2.0
        s = np.linspace(0.0, length, 2001)
        states = np.exp(1j * omega * s)[:, None] * np.array([[0.6, 0.8j]])
        res = curve_phase(ParamCurve(s, states), None)
        # endpoint Arg of -omega L cancels the integral +omega L up to the
        # O(h^2) stencil bias, omega L (omega h)^2 / 6 ~ 7e-7 here
        assert abs(res.value) < 1e-6

    def test_identity_curve_phase_matches_closed_chain(self):
        curve = great_circle_curve(2001, 0.7, start=0.3, stop=math.pi - 0.3)
        states = [StateVector(row) for row in curve.states]
        chain = chain_arg_oracle(states, None)
        got = curve_phase(curve, None).value
        assert wrapped_distance(got, chain) < 1e-6

    def test_great_circle_x_phase_matches_chain(self):
        curve = great_circle_curve(2001, 0.5, start=0.4, stop=math.pi - 0.4)
        states = [StateVector(row) for row in curve.states]
        chain = chain_arg_oracle(states, X)
        got = curve_phase(curve, X).value
        assert wrapped_distance(got, chain) < 1e-6

    def test_refinement_ratio_is_second_order(self):
        rng = rng_for(62)
        values = {}
        for count in (251, 501, 1001, 2001):
            s, theta, phi = smooth_two_level_path(rng_for(62), count, x_safe=True)
            params, states = bloch_curve_arrays(s, theta, phi)
            values[count] = curve_phase(ParamCurve(params, states), X).value
        d1 = abs(values[251] - values[501])
        d2 = abs(values[501] - values[1001])
        d3 = abs(values[1001] - values[2001])
        assert 3.5 <= d1 / d2 <= 4.5
        assert 3.5 <= d2 / d3 <= 4.5

    def test_orthogonal_endpoint_link_rejected(self):
        curve = great_circle_curve(101, 0.3, start=0.0, stop=math.pi)
        # <psi(pi)|psi(0)> = 0 for the identity operator
        with pytest.raises(UndefinedPhase):
            curve_phase(curve, None)


class TestGaugeAndReparametrization:
    def test_constant_gauge_leaves_connection(self):
        # d lambda/ds = 0: the connection is untouched up to rounding in the
        # complex rotation of the samples
        curve = great_circle_curve(101, 0.3, start=0.4, stop=2.0)
        before = connection_samples(curve, X).values
        after = connection_samples(gauge_transform(curve, np.full(101, 0.9)), X).values
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_affine_gauge_leaves_curve_phase(self):
        curve = great_circle_curve(8001, 0.3, start=0.4, stop=2.0)
        base = curve_phase(curve, X).value
        shifted = curve_phase(gauge_transform(curve, 0.3 * curve.params), X).value
        assert wrapped_distance(base, shifted) < 1e-8

    def test_smooth_gauge_leaves_curve_phase(self):
        curve = great_circle_curve(1001, 0.3, start=0.4, stop=2.0)
        base = curve_phase(curve, X).value
        lam = 0.8 * curve.params + 0.3 * np.sin(curve.params)
        shifted = curve_phase(gauge_transform(curve, lam), X).value
        assert wrapped_distance(base, shifted) < 1e-6

    def test_gauge_offsets_length_checked(self):
        curve = great_circle_curve(11, 0.0, start=0.4, stop=2.0)
        with pytest.raises(ValueError):
            gauge_transform(curve, np.zeros(10))

    def test_affine_reparametrization_exact(self):
        curve = great_circle_curve(501, 0.3, start=0.4, stop=2.0)
        base = curve_phase(curve, X).value
        again = curve_phase(reparametrize(curve, 2.0 * curve.params + 1.0), X).value
        assert wrapped_distance(base, again) < 1e-12

    def test_cubic_reparametrization_converges(self):
        curve = great_circle_curve(4001, 0.3, start=0.4, stop=2.0)
        base = curve_phase(curve, X).value
        s = curve.params
        r = s ** 3
        r = 0.4 + (2.0 - 0.4) * (r - r[0]) / (r[-1] - r[0])
        warped = curve_phase(reparametrize(curve, r), X).value
        assert wrapped_distance(base, warped) < 1e-5

    def test_non_monotone_reparametrization_rejected(self):
        curve = great_circle_curve(11, 0.0, start=0.4, stop=2.0)
        with pytest.raises(ValueError):
            reparametrize(curve, np.linspace(1.0, 0.0, 11))


class TestGeodesicNullCurve:
    def test_identical_endpoints_constant(self):
        a = StateVector(np.array([0.6, 0.8j]))
        curve = geodesic_null_curve(a, a, tau=1.0, M=101)
        samples = connection_samples(curve, None)
        np.testing.assert_allclose(samples.values, 0.0, atol=1e-12)

    def test_real_overlap_pair_is_null(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
        curve = geodesic_null_curve(a, b, tau=math.pi / 2, M=1001)
        res = curve_phase(curve, None)
        assert abs(res.value) < 1e-10

    def test_connection_integral_reads_overlap_arg(self):
        theta = math.pi / 5
        a = StateVector([1.0, 0.0])
        b = StateVector(np.exp(1j * theta) * np.array([1.0, 1.0]) / math.sqrt(2))
        curve = geodesic_null_curve(a, b, tau=1.0, M=2001)
        samples = connection_samples(curve, None)
        integral = trapezoid(samples.values, samples.params)
        assert integral == pytest.approx(theta, abs=1e-6)
        assert abs(curve_phase(curve, None).value) < 1e-6

    def test_endpoints_reproduced(self):
        rng = rng_for(63)
        a = random_state(rng, 3, normalize=True)
        b = random_state(rng, 3, normalize=True)
        curve = geodesic_null_curve(a, b, tau=2.0, M=51)
        np.testing.assert_allclose(curve.states[0], a.components, atol=1e-12)
        np.testing.assert_allclose(curve.states[-1], b.components, atol=1e-12)

    def test_orthogonal_endpoints_rejected(self):
        with pytest.raises(OrthogonalEndpoints):
            geodesic_null_curve(StateVector([1.0, 0.0]), StateVector([0.0, 1.0]))

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            geodesic_null_curve(StateVector([2.0, 0.0]), StateVector([1.0, 0.0]))

    def test_tau_domain_checked(self):
        a = StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            geodesic_null_curve(a, a, tau=math.pi)


class TestONullCurve:
    def test_identical_endpoints_positive_expectation(self):
        rng = rng_for(64)
        a = random_state(rng, 3)
        obs = random_positive_definite(rng, 3)
        curve = o_null_curve(a, a, obs, M=101)
        res = curve_phase(curve, obs)
        assert abs(res.value) < 1e-12

    def test_orthogonal_states_swap_operator(self):
        # <0|X|1> = 1 while <n|X|n> = 2(x/tau)(1 - x/tau) vanishes at both
        # ends; those two samples come back extrapolated, not integrated
        a = StateVector([1.0, 0.0])
        b = StateVector([0.0, 1.0])
        curve = o_null_curve(a, b, X, M=1001)
        samples = connection_samples(curve, X)
        assert samples.extrapolated == (0, 1000)
        res = curve_phase(curve, X)
        assert abs(res.value) < 1e-10

    def test_nullity_for_positive_definite_operator(self):
        # discretization leaves a floor ~ theta^3 / (6 M^2), amplified when
        # the interpolation chord nearly collapses; keep both in check the
        # same way the acceptance sweep does
        rng = rng_for(65)
        accepted = 0
        while accepted < 10:
            dim = int(rng.integers(2, 5))
            a = random_state(rng, dim, normalize=True)
            b = random_state(rng, dim, normalize=True)
            obs = random_positive_definite(rng, dim)
            link = np.vdot(b.components, obs.entries @ a.components)
            theta = np.angle(link / np.vdot(b.components, b.components).real)
            if abs(link) < 1e-6 or abs(theta) > 2.0:
                continue
            x = np.linspace(0.0, 1.0, 201)
            chord = (1 - x)[:, None] * a.components + (
                x * np.exp(1j * theta)
            )[:, None] * b.components
            den = np.einsum("ld,de,le->l", chord.conj(), obs.entries, chord).real
            if den.min() / den.max() < 0.2:
                continue
            accepted += 1
            curve = o_null_curve(a, b, obs, M=2001)
            assert abs(curve_phase(curve, obs).value) < 1e-6

    def test_nullity_residual_is_second_order(self):
        # even an ill-conditioned pair obeys the h^2 law
        a = StateVector([1.0, 0.0])
        b = StateVector(np.array([math.cos(2.9), math.sin(2.9) * np.exp(0.4j)]))
        obs = random_positive_definite(rng_for(1), 2)
        coarse = abs(curve_phase(o_null_curve(a, b, obs, M=2001), obs).value)
        fine = abs(curve_phase(o_null_curve(a, b, obs, M=4001), obs).value)
        assert coarse / fine == pytest.approx(4.0, abs=0.5)

    def test_connection_integral_reads_link_arg(self):
        rng = rng_for(66)
        a = random_state(rng, 3)
        b = random_state(rng, 3)
        obs = random_positive_definite(rng, 3)
        curve = o_null_curve(a, b, obs, M=4001)
        samples = connection_samples(curve, obs)
        integral = trapezoid(samples.values, samples.params)
        amp = np.vdot(a.components, obs.entries @ b.components)
        want = np.angle(amp / np.vdot(b.components, b.components).real)
        assert integral == pytest.approx(want, abs=1e-6)

    def test_vanishing_o_link_rejected(self):
        z = Observable([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(UndefinedPhase):
            o_null_curve(StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), z)

    def test_interior_denominator_zero_reported(self):
        # <A|O|A> > 0 > <B|O|B> forces a sign change of <n|O|n> inside
        z = Observable([[1.0, 0.0], [0.0, -1.0]])
        a = StateVector([1.0, 0.2])
        b = StateVector([0.3, 1.0])
        with pytest.raises(SingularConnection) as err:
            o_null_curve(a, b, z, M=501)
        assert err.value.sample_index is not None


    @pytest.mark.parametrize("seed", range(40))
    def test_states_and_checks_match_the_direct_sandwich(self, seed):
        # o_null_curve takes <n|O|n> from the 2x2 Gram matrix of [A; B]; on
        # indefinite operators, where it often crosses zero, the sample it
        # names must be the one the direct (M, dim) sandwich names
        rng = rng_for(1500 + seed)
        dim = int(rng.integers(2, 6))
        a, b = random_state(rng, dim), random_state(rng, dim)
        obs = random_hermitian(rng, dim)
        tau = float(rng.uniform(0.5, 2.0))
        states, bad = null_curve_oracle(a, b, obs, tau, 41)
        if bad is None:
            curve = o_null_curve(a, b, obs, tau=tau, M=41)
            np.testing.assert_allclose(curve.states, states, rtol=0.0, atol=1e-15 * np.abs(states).max())
        else:
            with pytest.raises(SingularConnection) as err:
                o_null_curve(a, b, obs, tau=tau, M=41)
            assert err.value.sample_index == bad

    def test_exact_interior_zero_is_named(self):
        # theta = 0 and <n|Z|n> = (1 - x)^2 - 3 x^2 + 2 x (1 - x) = 1 - 4 x^2
        # vanishes exactly at the middle sample
        z = Observable([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularConnection, match="vanishes at interior sample 50 ") as err:
            o_null_curve(StateVector([1.0, 0.0]), StateVector([1.0, 2.0]), z, M=101)
        assert err.value.sample_index == 50


class TestNullCurvesStayInTheirSpan:
    """The null curves are stored as (M, 2) coefficients over [A; B], and their
    connection is the one the same states give as a dense curve."""

    @staticmethod
    def pairs():
        for seed in range(12):
            rng = rng_for(1900 + seed)
            dim = int(rng.integers(2, 6))
            a, b = random_state(rng, dim, normalize=True), random_state(rng, dim, normalize=True)
            for obs in (None, random_positive_definite(rng, dim)):
                yield a, b, obs, float(rng.uniform(0.5, 2.0))

    @staticmethod
    def assert_samples_agree(got, want):
        assert got.integral == pytest.approx(want.integral, rel=1e-12, abs=0.0)
        assert got.min_modulus == pytest.approx(want.min_modulus, rel=1e-12, abs=0.0)
        assert got.extrapolated == want.extrapolated
        # each sample's stencil weights ~1/h amplify last-bit differences of
        # its three sandwiches; the trapezoid integral averages them out
        h = float(np.diff(want.params).min())
        np.testing.assert_allclose(got.values, want.values, rtol=0.0, atol=16 * np.finfo(float).eps / h)

    @classmethod
    def assert_dense_agrees(cls, curve, obs):
        dense = ParamCurve(curve.params, curve.states)
        cls.assert_samples_agree(connection_samples(curve, obs), connection_samples(dense, obs))
        got_phase, want_phase = curve_phase(curve, obs), curve_phase(dense, obs)
        assert wrapped_distance(got_phase.value, want_phase.value) <= 1e-12

    @pytest.mark.parametrize("count", [3, 401, 20001])
    def test_o_null_curve_matches_its_dense_states(self, count):
        for a, b, obs, tau in self.pairs():
            curve = o_null_curve(a, b, obs, tau=tau, M=count)
            assert curve.coeffs.shape == (count, 2)
            np.testing.assert_array_equal(curve.basis, [a.components, b.components])
            self.assert_dense_agrees(curve, obs)

    @pytest.mark.parametrize("count", [3, 401, 20001])
    def test_geodesic_null_curve_matches_its_dense_states(self, count):
        for a, b, obs, tau in self.pairs():
            curve = geodesic_null_curve(a, b, tau=min(tau, 3.0), M=count)
            assert curve.coeffs.shape == (count, 2)
            self.assert_dense_agrees(curve, obs)

    def test_orthogonal_endpoints_extrapolate_alike(self):
        curve = o_null_curve(StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), X, M=401)
        self.assert_dense_agrees(curve, X)
        assert connection_samples(curve, X).extrapolated == (0, 400)

    def test_triangle_never_holds_an_m_by_dim_array(self):
        rng = rng_for(1950)
        states = [random_state(rng, 16) for _ in range(3)]
        obs = random_positive_definite(rng, 16)
        count = 20001
        tracemalloc.start()
        try:
            triangle_holonomy(*states, obs, M=count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < count * 16 * np.dtype(complex).itemsize


class TestNullSegmentClosedForm:
    """The holonomies sample each null segment's connection from the closed
    form of its links (curve._segment_samples), never from the kernel."""

    def test_values_are_within_four_ulp_of_the_discrete_stencil(self):
        count, dim = 20001, 3
        rows = [*range(7), *range(count // 2 - 3, count // 2 + 4), *range(count - 7, count)]
        rng = rng_for(2100)
        definite = random_positive_definite(rng, dim)
        for obs in (None, definite, Observable(-definite.entries)):
            a, b = random_state(rng, dim), random_state(rng, dim)
            segment = _null_segment(a, b, obs, 1.0, count, DEFAULT_TOLS)
            got = _segment_samples(segment, DEFAULT_TOLS).values[rows]
            entries = np.eye(dim) if obs is None else obs.entries
            want = null_segment_connection_oracle(a.components, b.components, entries, segment.theta,
                                                  segment.x, segment.frac, rows)
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want)), (got - want) / want

    @staticmethod
    def cases():
        for seed in range(8):
            rng = rng_for(2200 + seed)
            dim = int(rng.integers(3, 6))
            a, b = random_state(rng, dim, normalize=True), random_state(rng, dim, normalize=True)
            definite = random_positive_definite(rng, dim)
            # indefinite, yet <n|O|n> = <n|definite|n> > 0: the negative
            # direction w is orthogonal to A and B
            w = np.linalg.svd(np.stack((a.components, b.components)).conj())[2][-1].conj()
            indefinite = definite.entries - 5 * np.abs(definite.entries).sum() * np.outer(w, w.conj())
            tau = float(rng.uniform(0.5, 2.0))
            for obs in (None, definite, Observable(-definite.entries), Observable(indefinite)):
                yield a, b, obs, tau
        # orthogonal endpoints: <n|O|n> vanishes at both ends, which are extrapolated
        yield StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), X, 1.0
        swap = Observable([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
        yield StateVector([0.6, 0.0, 0.0]), StateVector([0.0, 0.8j, 0.0]), swap, 1.7

    @pytest.mark.parametrize("count", [3, 401, 20001])
    def test_samples_match_the_kernel_on_the_o_null_curve(self, count):
        # at count 3 the orthogonal endpoints leave only the middle sample
        extrapolated = 0
        for a, b, obs, tau in self.cases():
            got = _segment_samples(_null_segment(a, b, obs, tau, count, DEFAULT_TOLS), DEFAULT_TOLS)
            want = connection_samples(o_null_curve(a, b, obs, tau=tau, M=count), obs)
            TestNullCurvesStayInTheirSpan.assert_samples_agree(got, want)
            extrapolated += got.extrapolated == (0, count - 1)
        assert extrapolated == 2


class TestHolonomy:
    def test_loop_equals_curve_phase_x_arc(self):
        curve = great_circle_curve(1001, 0.5, start=0.4, stop=2.2)
        loop = loop_holonomy(curve, X)
        direct = curve_phase(curve, X)
        assert wrapped_distance(loop.value, direct.value) < 1e-6

    def test_loop_equals_curve_phase_identity_arc(self):
        curve = great_circle_curve(1001, 0.7, start=0.3, stop=2.0)
        loop = loop_holonomy(curve, None)
        states = [StateVector(row) for row in curve.states]
        chain = chain_arg_oracle(states, None)
        assert wrapped_distance(loop.value, chain) < 1e-6

    def test_closed_gauge_loop_is_trivial(self):
        # psi(1) = -psi(0): closed in ray space, and the closing null curve
        # supplies the matching half turn
        s = np.linspace(0.0, 1.0, 2001)
        states = np.exp(1j * math.pi * s)[:, None] * np.array([[0.6, 0.8j]])
        loop = loop_holonomy(ParamCurve(s, states), None)
        assert abs(loop.value) < 1e-9

    def test_triangle_of_identical_states_vanishes(self):
        a = StateVector([0.6, 0.8j])
        res = triangle_holonomy(a, a, a, None, M=101)
        assert abs(res.value) < 1e-12

    def test_triangle_reproduces_swap_closed_form(self):
        states = [
            bloch_state(0.0, 0.0),
            bloch_state(math.pi / 2, math.pi / 3),
            bloch_state(math.pi, 0.0),
        ]
        res = triangle_holonomy(states[0], states[1], states[2], X, M=2001)
        assert res.value == pytest.approx(math.pi / 3, abs=1e-5)

    def test_triangle_matches_chain_positive_definite(self):
        rng = rng_for(67)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            states = [random_state(rng, dim) for _ in range(3)]
            obs = random_positive_definite(rng, dim)
            tri = triangle_holonomy(states[0], states[1], states[2], obs, M=4001)
            chain = generalized_phase_chain(states, obs)
            assert wrapped_distance(tri.value, chain.value) < 1e-6


def polyline_curve(rows, count: int) -> ParamCurve:
    """count uniform samples on [0, 1] of the polygon through the given rows,
    which it meets at evenly spaced parameters."""
    rows = np.asarray(rows, dtype=complex)
    at = np.linspace(0.0, len(rows) - 1.0, count)
    lo = np.minimum(np.floor(at).astype(int), len(rows) - 2)
    frac = (at - lo)[:, None]
    return ParamCurve(np.linspace(0.0, 1.0, count), (1.0 - frac) * rows[lo] + frac * rows[lo + 1])


def raised(call) -> tuple:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value), getattr(info.value, "sample_index", None)


Z = Observable(np.diag([1.0, -1.0]))


class TestHolonomyErrors:
    """The holonomies build and check each null segment once, as arrays, and
    raise the type, message and sample index that o_null_curve and
    connection_samples raise on that segment, in this order: closing segment
    built, then the open connection, then the closing one."""

    def test_vanishing_closing_link(self):
        # <psi(0)|Z|psi(L)> = 0
        error = raised(lambda: loop_holonomy(polyline_curve([[1, 0], [1, 1], [0, 1]], 11), Z))
        assert error == (UndefinedPhase, "null curve undefined: |<A|O|B>| = 0.000e+00 <= tol_zero", None)

    def test_vanishing_triangle_link(self):
        # <psi3|Z|psi2> = 0.5 - 0.5 on the second segment
        error = raised(lambda: triangle_holonomy(StateVector([1, 0.1]), StateVector([1, 0.5]),
                                                 StateVector([0.5, 1]), Z, M=11))
        assert error == (UndefinedPhase, "null curve undefined: |<A|O|B>| = 0.000e+00 <= tol_zero", None)

    def test_closing_sign_change_comes_before_a_singular_open_connection(self):
        # <n|Z|n> goes from 0.75 to -0.96 along the closing segment, and the
        # open curve meets <psi|Z|psi> = 0 at its interior sample 4
        error = raised(lambda: loop_holonomy(polyline_curve([[0.2, 1], [1, 1], [1, 0.5]], 9), Z))
        assert error == (SingularConnection,
                         "<n|O|n> changes sign between samples 4 and 5 of the null interpolation", 4)

    def test_triangle_interior_zero(self):
        error = raised(lambda: triangle_holonomy(StateVector([1, 0.5]), StateVector([0.2, 1]),
                                                 StateVector([1, 0.3]), Z, M=10))
        assert error == (SingularConnection, "<n|O|n> vanishes at interior sample 5 of the null interpolation", 5)

    def test_open_connection_comes_before_the_closing_connection(self):
        # at 1e306 the closing segment's stencil terms pass the doubles, so its
        # connection alone raises Overflow; with an open curve singular at
        # its interior sample 1000 the open connection's error comes first
        big = Observable(1e306 * np.diag([1.0, -1.0, 1.0]))
        closing_only = raised(lambda: loop_holonomy(
            polyline_curve([[1, 0.1, 0], [1, 0.05, 0.05], [1, 0, 0.1]], 2001), big))
        assert closing_only == (Overflow, "the connection integral is nan: the connection overflows a double", None)
        both = raised(lambda: loop_holonomy(polyline_curve([[1, 0.1, 0], [1, 1, 0], [1, 0, 0.1]], 2001), big))
        assert both == (SingularConnection, "connection denominator vanishes at interior sample 1000 "
                        "(|<psi|O|psi>| = 0.000e+00)", 1000)

    def test_vanishing_norm_of_a_closing_state_is_still_checked(self):
        # psi(0) = (1 + 2e-7) psi(L) under O = -1e8: the closing state is
        # (1 - 2x - 2e-7 x) psi(L), of norm 1e-14 at x = 1/2, while <n|O|n>
        # is -1e-6 there and never changes sign
        a = np.array([0.6, 0.8j])
        curve = ParamCurve([0.0, 0.5, 1.0], [(1 + 2e-7) * a, [1, 0], a])
        error = raised(lambda: loop_holonomy(curve, Observable(-1e8 * np.eye(2))))
        assert error == (InvalidArgument, "curve state at sample 1 has vanishing norm", None)

    def test_chain_lengths(self):
        loop = loop_holonomy(polyline_curve([[1, 0.1], [1, 0.3j], [1, -0.2]], 10), Z)
        triangle = triangle_holonomy(StateVector([1, 0.1]), StateVector([1, 0.3j]), StateVector([1, -0.2]), Z, M=10)
        assert (loop.chain_length, triangle.chain_length) == (20, 30)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), count=st.integers(3, 40),
           tau=st.sampled_from([1.0, 0.3, 3.0, 1e-300, 5e-324]), scale=st.sampled_from([1.0, -1.0, -1e8]),
           offset=st.sampled_from([0.3, 1e-5, 1e-6, 1e-7, 1e-9]), spread=st.sampled_from([0.0, 1e-9, 1e-7, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_param_curve_accepts_every_null_segment(self, seed, dim, count, tau, scale, offset, spread):
        # the ParamCurve checks a segment skips (finite arrays, shapes, M >= 3)
        # cannot fail on a segment _null_segment accepts, which also runs its
        # closed-form norm check: o_null_curve builds the ParamCurve of that segment.
        # Under a negative definite O the chord through A and B = mu A (spread 0)
        # passes through zero `offset` sample steps past the middle sample.
        rng = rng_for(seed)
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        f0 = (count // 2 + offset) / (count - 1)
        b = (1.0 / f0 - 1.0) * a + spread * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
        obs = scale * random_positive_definite(rng, dim).entries
        obs = Observable(0.5 * (obs + obs.conj().T))
        a, b = StateVector(a), StateVector(b)
        try:
            segment = _null_segment(a, b, obs, tau, count, DEFAULT_TOLS)
        except (DomainError, InvalidArgument):  # the kept checks: a small tau, or a vanishing norm
            return
        curve = o_null_curve(a, b, obs, tau=tau, M=count)
        assert np.array_equal(curve.params, segment.x) and curve.coeffs.shape == (count, 2)


class TestConnectionEvaluatedOncePerCurve:
    @pytest.fixture
    def kernel_curves(self, monkeypatch):
        """Record the params array of every connection-kernel call."""
        seen = []
        original = _kernels.connection_terms

        def counting(params, states, obs):
            seen.append(params)
            return original(params, states, obs)

        monkeypatch.setattr(_kernels, "connection_terms", counting)
        return seen

    @pytest.fixture
    def closed_form_segments(self, monkeypatch):
        """Record the denominators of every closed-form null-segment connection."""
        seen = []
        original = curve_module._segment_samples

        def counting(segment, tol):
            seen.append(segment.den)
            return original(segment, tol)

        monkeypatch.setattr(curve_module, "_segment_samples", counting)
        return seen

    @staticmethod
    def distinct(arrays) -> int:
        return len({id(a) for a in arrays})

    def test_curve_phase(self, kernel_curves):
        curve_phase(great_circle_curve(201, 0.5, start=0.4, stop=2.2), X)
        assert len(kernel_curves) == 1

    def test_curve_phase_with_given_samples(self, kernel_curves):
        curve = great_circle_curve(201, 0.5, start=0.4, stop=2.2)
        reused = curve_phase(curve, X, samples=connection_samples(curve, X))
        assert len(kernel_curves) == 1
        assert reused == curve_phase(curve, X)

    def test_cli_curve_job(self, kernel_curves, tmp_path):
        curve = great_circle_curve(201, 0.5, start=0.4, stop=2.2)
        job = tmp_path / "curve.json"
        job.write_text(json.dumps({
            "params": curve.params.tolist(),
            "states": [[{"re": z.real, "im": z.imag} for z in row] for row in curve.states.tolist()],
        }))
        out = tmp_path / "report.json"
        assert main(["curve", "--curve", str(job), "--identity", "--output", str(out)]) == 0
        assert len(kernel_curves) == 1

    def test_cli_null_curve_job(self, kernel_curves, tmp_path):
        (tmp_path / "a.json").write_text("[1, 0]")
        (tmp_path / "b.json").write_text('[{"re": 0, "im": 0.6}, 0.8]')
        argv = ["null-curve", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                "--identity", "--output", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert len(kernel_curves) == 1

    def test_loop_holonomy(self, kernel_curves, closed_form_segments):
        # the open curve runs the kernel, the closing segment its closed form
        loop_holonomy(great_circle_curve(201, 0.5, start=0.4, stop=2.2), X)
        assert len(kernel_curves) == 1
        assert len(closed_form_segments) == 1

    def test_triangle_holonomy(self, kernel_curves, closed_form_segments):
        states = [
            bloch_state(0.0, 0.0),
            bloch_state(math.pi / 2, math.pi / 3),
            bloch_state(math.pi, 0.0),
        ]
        triangle_holonomy(states[0], states[1], states[2], X, M=101)
        assert len(kernel_curves) == 0
        assert len(closed_form_segments) == 3
        assert self.distinct(closed_form_segments) == 3
