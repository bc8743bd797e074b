"""Discrete chain phases: closed forms, identities, and invariance laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bloch_state,
    chain_arg_oracle,
    outputs_under_both_dispatches,
    random_chain,
    random_hermitian,
    random_state,
    rng_for,
)
from ggphase import (
    IdentityNotApplicable,
    Observable,
    Overflow,
    StateVector,
    UndefinedPhase,
    bargmann_density_phase,
    generalized_phase_chain,
    in_phase,
    phase_via_weak_values,
    wrap_angle,
    wrapped_distance,
)

X = Observable([[0.0, 1.0], [1.0, 0.0]])


class TestClosedFormTriples:
    def test_swap_observable_upper_hemisphere(self):
        states = [bloch_state(0.0, 0.0), bloch_state(math.pi / 2, math.pi / 3), bloch_state(math.pi, 0.0)]
        res = generalized_phase_chain(states, X)
        assert res.value == pytest.approx(math.pi / 3, abs=1e-12)
        assert res.chain_length == 3

    def test_swap_observable_lower_hemisphere(self):
        states = [bloch_state(0.0, 0.0), bloch_state(3 * math.pi / 2, math.pi / 5), bloch_state(math.pi, 0.0)]
        res = generalized_phase_chain(states, X)
        assert res.value == pytest.approx(wrap_angle(math.pi + math.pi / 5), abs=1e-12)

    def test_basis_swap_link_is_real_unit(self):
        # <0|X|1> = 1, <1|X|0> = 1 and the middle state on the equator at phi=0
        states = [bloch_state(0.0, 0.0), bloch_state(math.pi / 2, 0.0), bloch_state(math.pi, 0.0)]
        res = generalized_phase_chain(states, X)
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.min_link_modulus == pytest.approx(math.sin(math.pi / 4) ** 2 * 2 / math.sqrt(2), rel=1e-12)


class TestChainAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_renormalized_product_arg(self, seed):
        rng = rng_for(200 + seed)
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(3, 8))
        states = random_chain(rng, dim, length)
        obs = random_hermitian(rng, dim)
        got = generalized_phase_chain(states, obs).value
        assert wrapped_distance(got, chain_arg_oracle(states, obs)) < 1e-12

    def test_identity_reduction_matches_pancharatnam_oracle(self):
        rng = rng_for(77)
        states = random_chain(rng, 4, 5)
        via_obs = generalized_phase_chain(states, Observable(np.eye(4))).value
        via_none = generalized_phase_chain(states, None).value
        oracle = chain_arg_oracle(states, None)
        assert wrapped_distance(via_obs, oracle) < 1e-12
        assert wrapped_distance(via_none, oracle) < 1e-12


class TestAlgebraicLaws:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_gauge_invariance(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(3, 8))
        states = random_chain(rng, dim, length)
        obs = random_hermitian(rng, dim)
        base = generalized_phase_chain(states, obs).value
        offsets = rng.uniform(-math.pi, math.pi, size=length)
        shifted = [
            StateVector(np.exp(1j * lam) * s.components)
            for lam, s in zip(offsets, states)
        ]
        assert wrapped_distance(generalized_phase_chain(shifted, obs).value, base) < 1e-10

    def test_cyclic_rotation_invariance(self):
        rng = rng_for(31)
        states = random_chain(rng, 3, 6)
        obs = random_hermitian(rng, 3)
        base = generalized_phase_chain(states, obs).value
        for k in range(1, 6):
            rotated = states[k:] + states[:k]
            assert wrapped_distance(generalized_phase_chain(rotated, obs).value, base) < 1e-12

    def test_reversal_negates(self):
        rng = rng_for(32)
        states = random_chain(rng, 4, 5)
        obs = random_hermitian(rng, 4)
        forward = generalized_phase_chain(states, obs).value
        backward = generalized_phase_chain(states[::-1], obs).value
        assert wrapped_distance(forward, -backward) < 1e-12

    def test_scaling_any_state_leaves_phase(self):
        rng = rng_for(33)
        states = random_chain(rng, 3, 4)
        obs = random_hermitian(rng, 3)
        base = generalized_phase_chain(states, obs).value
        scaled = list(states)
        scaled[2] = StateVector(7.5 * scaled[2].components)
        assert wrapped_distance(generalized_phase_chain(scaled, obs).value, base) < 1e-12


class TestThreeWayAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_density_weak_value_agree(self, seed):
        rng = rng_for(300 + seed)
        dim = int(rng.integers(2, 6))
        states = random_chain(rng, dim, 3)
        obs = random_hermitian(rng, dim)
        chain = generalized_phase_chain(states, obs).value
        density = bargmann_density_phase(states, obs).value
        weak = phase_via_weak_values(states, obs)
        assert wrapped_distance(chain, density) < 1e-10
        assert wrapped_distance(chain, weak) < 1e-9


HUGE_O_STATES = [StateVector([1.0, 0.3j]), StateVector([0.2, 1.0]), StateVector([1.0, 1.0])]


def scaled_observable(scale: float) -> Observable:
    return Observable(scale * np.array([[1.0, 0.5], [0.5, 2.0]]))


@pytest.mark.filterwarnings("error")
class TestHugeObservable:
    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e200])
    def test_weak_values_answer_past_the_doubles(self, scale):
        # the three weak values are near scale; their product may not be a double
        obs = scaled_observable(scale)
        chain = generalized_phase_chain(HUGE_O_STATES, obs).value
        assert chain == pytest.approx(-0.26917, abs=1e-5)
        assert wrapped_distance(phase_via_weak_values(HUGE_O_STATES, obs), chain) <= 1e-12

    def test_density_phase_at_1e100(self):
        obs = scaled_observable(1e100)
        chain = generalized_phase_chain(HUGE_O_STATES, obs).value
        assert wrapped_distance(bargmann_density_phase(HUGE_O_STATES, obs).value, chain) <= 1e-12

    def test_density_trace_past_the_doubles_overflows(self):
        # |trace| is about 1e600, so the modulus it would report is not a double
        with pytest.raises(Overflow, match="trace overflows"):
            bargmann_density_phase(HUGE_O_STATES, scaled_observable(1e200))


class TestErrorPaths:
    def test_vanishing_link_names_index(self):
        z = Observable([[1.0, 0.0], [0.0, -1.0]])
        states = [bloch_state(0.0, 0.0), bloch_state(math.pi / 2, 0.0), bloch_state(math.pi, 0.0)]
        # <1|Z|0> = 0: the closing link 2 -> 0 vanishes
        with pytest.raises(UndefinedPhase) as err:
            generalized_phase_chain(states, z)
        assert err.value.link_index == 2

    def test_short_chain_rejected(self):
        rng = rng_for(40)
        with pytest.raises(ValueError):
            generalized_phase_chain(random_chain(rng, 2, 2), X)

    def test_weak_value_route_requires_non_orthogonal_states(self):
        states = [
            StateVector([1.0, 0.0]),
            StateVector([0.0, 1.0]),
            StateVector([1.0, 1.0]),
        ]
        # <psi1|psi2> = 0, so the weak-value route does not apply even
        # though the X-chain itself is perfectly well defined
        with pytest.raises(IdentityNotApplicable):
            phase_via_weak_values(states, X)
        assert generalized_phase_chain(states, X).value == pytest.approx(0.0, abs=1e-15)

    def test_density_phase_needs_exactly_three(self):
        rng = rng_for(41)
        with pytest.raises(ValueError):
            bargmann_density_phase(random_chain(rng, 3, 4), None)


class TestInPhase:
    def test_in_phase_is_not_transitive(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([1.0, 1.0])
        c = StateVector([1j, 1.0])
        # <a|b> = 1 (in phase) while <b|c> = 1 + 1j (not)
        assert in_phase(a, b)
        bc = np.vdot(b.components, c.components)
        assert bc == pytest.approx(1.0 + 1.0j)
        assert not in_phase(b, c)
        # pick c so that <b|c> is real positive but <a|c> is not
        c2 = StateVector([1.0 - 1.0j, 1.0 + 1.0j])
        assert in_phase(b, c2)
        assert not in_phase(a, c2)

    def test_operator_in_phase_differs_from_plain(self):
        a = bloch_state(math.pi / 2, 0.0)
        b = bloch_state(math.pi / 2, math.pi / 2)
        # plain overlap has Arg pi/4, X-element Arg differs
        assert not in_phase(a, b)
        assert not in_phase(a, b, X)


CHAIN_VALUES = """
import numpy as np
from ggphase import Observable, StateVector, generalized_phase_chain
rng = np.random.default_rng(4242)
for j in range(400):
    dim, length = int(rng.integers(2, 17)), int(rng.integers(3, 41))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    obs = None if j % 4 == 0 else Observable(a + a.conj().T)
    states = rng.normal(size=(length, dim)) + 1j * rng.normal(size=(length, dim))
    print(repr(generalized_phase_chain([StateVector(s) for s in states], obs).value))
"""


def test_chain_values_do_not_depend_on_simd_dispatch():
    # the links are dispatch-independent (test_kernels); each Arg is taken by
    # math.atan2, so the phase is too
    default, reduced = outputs_under_both_dispatches(CHAIN_VALUES)
    assert len(default.splitlines()) == 400
    assert default == reduced
