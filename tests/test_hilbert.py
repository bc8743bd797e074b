"""State, observable, tolerance, and angle-arithmetic foundations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state, rng_for
from ggphase import (
    DEFAULT_TOLS,
    DensityMatrix,
    Observable,
    StateVector,
    ToleranceConfig,
    UndefinedWeakValue,
    matrix_element,
    relative_phase,
    weak_value,
    wrap_angle,
    wrapped_distance,
)


class TestWrapAngle:
    def test_interval_is_half_open_at_minus_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == math.pi

    def test_zero_and_small_angles_fixed(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(1.25) == 1.25
        assert wrap_angle(-1.25) == -1.25

    def test_full_turns_collapse(self):
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert wrap_angle(-6 * math.pi) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=-50.0, max_value=50.0), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=300, deadline=None)
    def test_periodicity(self, x, k):
        left = wrap_angle(x)
        right = wrap_angle(x + 2 * math.pi * k)
        assert wrapped_distance(left, right) < 1e-9
        assert -math.pi < left <= math.pi

    def test_wrapped_distance_symmetry(self):
        assert wrapped_distance(3.0, -3.0) == wrapped_distance(-3.0, 3.0)
        # 3.0 and -3.0 are 2*pi - 6 apart on the circle, not 6
        assert wrapped_distance(3.0, -3.0) == pytest.approx(2 * math.pi - 6.0, abs=1e-15)


class TestStateVector:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector([1.0, float("nan")])

    def test_components_are_immutable(self):
        state = StateVector([1.0, 2.0j])
        with pytest.raises(ValueError):
            state.components[0] = 5.0

    def test_basis_vector(self):
        e1 = StateVector.basis_vector(3, 1)
        assert e1.dim == 3
        np.testing.assert_array_equal(e1.components, [0, 1, 0])

    def test_norm_and_normalized(self):
        state = StateVector([3.0, 4.0j])
        assert state.norm_sq == pytest.approx(25.0)
        unit = state.normalized()
        assert unit.norm_sq == pytest.approx(1.0, abs=1e-15)
        # direction preserved
        assert abs(np.vdot(unit.components, state.components)) == pytest.approx(5.0)

    def test_unnormalized_states_are_first_class(self):
        a = StateVector([2.0, 0.0])
        b = StateVector([0.5j, 0.0])
        # matrix elements carry the raw amplitudes, no silent renormalization
        assert matrix_element(a, None, b) == pytest.approx(1.0j)


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Observable([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Observable([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_accepts_within_tolerance_and_entries_immutable(self):
        obs = Observable([[1.0, 1e-12j], [-1e-12j, 2.0]])
        with pytest.raises(ValueError):
            obs.entries[0, 0] = 7.0

    def test_identity(self):
        ident = Observable.identity(4)
        np.testing.assert_array_equal(ident.entries, np.eye(4))


class TestDensityMatrix:
    def test_pure_state_properties(self):
        rho = DensityMatrix.from_state(StateVector([1.0, 1.0j]))
        m = rho.entries
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(m @ m, m, atol=1e-14)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)

    def test_rejects_impure_input(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.0], [0.0, 0.5]])

    def test_trace_and_idempotency_follow_tol_herm(self):
        off = np.diag([1.0 + 1e-9, 0.0])
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(off)
        loose = ToleranceConfig(tol_herm=1e-8)
        np.testing.assert_array_equal(DensityMatrix(off, tol=loose).entries, off)


class TestMatrixElementAndPhases:
    def test_swap_matrix_element(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([0.0, 1.0])
        x = Observable([[0.0, 1.0], [1.0, 0.0]])
        assert matrix_element(a, x, b) == pytest.approx(1.0 + 0.0j)

    def test_relative_phase_identity_is_pancharatnam(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([np.exp(0.4j) / np.sqrt(2), np.exp(0.4j) / np.sqrt(2)])
        assert relative_phase(a, b) == pytest.approx(0.4, abs=1e-14)

    def test_weak_value_identity_operator_is_one(self):
        rng = rng_for(7)
        a, b = random_state(rng, 4), random_state(rng, 4)
        assert weak_value(a, None, b) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_weak_value_matches_definition(self):
        rng = rng_for(8)
        a, b = random_state(rng, 3), random_state(rng, 3)
        obs = random_hermitian(rng, 3)
        expected = matrix_element(a, obs, b) / matrix_element(a, None, b)
        assert weak_value(a, obs, b) == pytest.approx(expected, abs=1e-13)

    def test_weak_value_orthogonal_pair_rejected(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([0.0, 1.0])
        with pytest.raises(UndefinedWeakValue):
            weak_value(a, None, b)


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOLS.tol_zero == 1e-12
        assert DEFAULT_TOLS.tol_herm == 1e-10
        assert DEFAULT_TOLS.tol_phase == 1e-9
