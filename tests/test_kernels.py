"""The hot kernels against direct per-row sandwiches, explicit
finite-difference stencils, the np.gradient derivative array and the
np.roll link form they replace; the exact sum against math.fsum."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggphase import _kernels
from ggphase._kernels import chain_link_amplitudes, connection_terms

from conftest import connection_terms_gradient_oracle, outputs_under_both_dispatches, random_hermitian, rng_for


def random_stack(seed: int, count: int, dim: int):
    rng = rng_for(seed)
    states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    obs = random_hermitian(rng, dim).entries
    return states, obs


class TestChainLinkAmplitudes:
    def test_matches_direct_loop(self):
        states, obs = random_stack(7, 5, 3)
        links = chain_link_amplitudes(states, obs)
        for l in range(5):
            expected = states[l].conj() @ obs @ states[(l + 1) % 5]
            assert links[l] == pytest.approx(expected, rel=1e-13)

    def test_identity_links_are_overlaps(self):
        states, _ = random_stack(8, 4, 6)
        links = chain_link_amplitudes(states, np.eye(6, dtype=complex))
        expected = [np.vdot(states[l], states[(l + 1) % 4]) for l in range(4)]
        np.testing.assert_allclose(links, expected, rtol=1e-13)

    def test_accepts_non_contiguous_input(self):
        states, obs = random_stack(9, 6, 4)
        direct = chain_link_amplitudes(states, obs)
        strided = chain_link_amplitudes(states[::1, ::-1][:, ::-1], obs)
        np.testing.assert_allclose(strided, direct, rtol=1e-13)


def explicit_connection(psi, obs, dpsi) -> float:
    """Im(<psi|O|d psi> / <psi|O|psi>) from an explicit derivative."""
    return ((psi.conj() @ obs @ dpsi) / (psi.conj() @ obs @ psi)).imag


class TestConnectionTerms:
    def test_uniform_grid_stencils(self):
        # One interior index checked against the explicit second-order
        # central difference, plus both one-sided endpoint stencils.
        params = np.linspace(0.0, 1.0, 11)
        states, obs = random_stack(17, 11, 3)
        values, moduli = connection_terms(params, states, obs)
        h = 0.1
        d_mid = (states[6] - states[4]) / (2 * h)
        d_first = (states[1] - states[0]) / h
        d_last = (states[10] - states[9]) / h
        assert values[5] == pytest.approx(explicit_connection(states[5], obs, d_mid), rel=1e-12)
        assert values[0] == pytest.approx(explicit_connection(states[0], obs, d_first), rel=1e-12)
        assert values[10] == pytest.approx(explicit_connection(states[10], obs, d_last), rel=1e-12)
        assert moduli[5] == pytest.approx(abs(states[5].conj() @ obs @ states[5]), rel=1e-12)

    def test_nonuniform_interior_stencil(self):
        params = np.array([0.0, 0.3, 1.0, 1.2])
        states, obs = random_stack(18, 4, 2)
        values, _ = connection_terms(params, states, obs)
        hm, hp = 0.3, 0.7
        d1 = (
            hm * hm * states[2]
            + (hp * hp - hm * hm) * states[1]
            - hp * hp * states[0]
        ) / (hp * hm * (hp + hm))
        assert values[1] == pytest.approx(explicit_connection(states[1], obs, d1), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_steps_far_from_one_scale_the_numerators(self, scale):
        # A product of two steps would overflow (or underflow) here; the
        # weights divide in sequence, so the values scale as 1 / scale.
        params = np.array([0.0, 0.3, 1.0, 1.2, 2.0])
        states, obs = random_stack(19, 5, 3)
        values, moduli = connection_terms(params, states, obs)
        scaled_values, scaled_moduli = connection_terms(params * scale, states, obs)
        assert np.array_equal(scaled_moduli, moduli)
        np.testing.assert_allclose(scaled_values * scale, values, rtol=1e-14)


def random_grid(rng, count: int, uniform: bool) -> np.ndarray:
    """Strictly increasing parameters; uniform ones are multiples of 1/8, so
    every spacing is exactly equal."""
    if uniform:
        return float(rng.integers(-4, 5)) + np.arange(count) * 0.125
    return float(rng.normal()) + np.cumsum(rng.uniform(0.05, 1.0, size=count))


# (label, sample count, dim, uniform grid)
GRIDS = [
    ("nonuniform", 257, 5, False),
    ("nonuniform_dim16", 64, 16, False),
    ("uniform", 257, 5, True),
    ("three_samples", 3, 4, False),
    ("three_samples_uniform", 3, 4, True),
    ("dim_one", 101, 1, False),
    ("dim_one_uniform", 101, 1, True),
]


class TestConnectionTermsAgainstGradient:
    """The link-sandwich connection against <psi|O| applied to numpy's own
    derivative array. The numerators round differently by a few ulps of the
    largest term, which is of order |psi|^2 |O| dim / (smallest step), so
    the values differ by that over each row's |<psi|O|psi>|."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(("label", "count", "dim", "uniform"), GRIDS, ids=[g[0] for g in GRIDS])
    def test_matches_gradient_oracle(self, label, count, dim, uniform, seed):
        rng = rng_for(900 + 10 * seed + GRIDS.index((label, count, dim, uniform)))
        params = random_grid(rng, count, uniform)
        states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        obs = random_hermitian(rng, dim).entries
        values, moduli = connection_terms(params, states, obs)
        want_num, want_den = connection_terms_gradient_oracle(params, states, obs)
        assert np.array_equal(moduli, np.abs(want_den))
        scale = np.max(np.abs(states)) ** 2 * np.max(np.abs(obs)) * dim / np.min(np.diff(params))
        assert np.max(np.abs(values - (want_num / want_den).imag) * np.abs(want_den)) <= 1e-14 * scale

    def test_endpoint_stencils_are_first_order(self):
        # The quadratic path psi = (1 + i s^2, 0), whose connection is
        # Im(conj(psi) psi') / |psi|^2 = 2 s / (1 + s^4): the one-sided end
        # stencils miss its curvature by exactly h psi'' / 2, which a
        # second-order end stencil would not. A real path has zero connection.
        params = np.array([0.0, 0.5, 2.0, 2.25])
        states = np.array([[1.0 + 1j * s * s, 0.0] for s in params])
        values, moduli = connection_terms(params, states, np.eye(2, dtype=complex))
        assert np.array_equal(moduli, 1.0 + params**4)
        assert values[0] == pytest.approx((0.25 - 0.0) / 0.5, rel=1e-14)
        assert values[-1] == pytest.approx((2.25**2 - 4.0) / 0.25 / (1.0 + 2.25**4), rel=1e-14)
        # the interior stencil is exact on a quadratic: psi' = 2 i s
        assert values[1] == pytest.approx(1.0 / (1.0 + 0.5**4), rel=1e-14)
        assert values[2] == pytest.approx(4.0 / (1.0 + 2.0**4), rel=1e-14)


class TestChainLinksAgainstRoll:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_roll_form(self, seed):
        rng = rng_for(950 + seed)
        count, dim = int(rng.integers(3, 41)), int(rng.integers(1, 18))
        states, obs = random_stack(950 + seed, count, dim)
        rolled = np.einsum("ij,ij->i", np.conjugate(states @ obs.conj()), np.roll(states, -1, axis=0))
        assert np.array_equal(chain_link_amplitudes(states, obs), rolled)
        assert np.array_equal(chain_link_amplitudes(states[:, ::-1][:, ::-1], obs), rolled)


class TestIdentityObservable:
    """obs=None is the identity: bra is states.conj(), with no matmul by eye."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_none_is_bit_identical_to_eye(self, seed):
        rng = rng_for(seed)
        count, dim = 257, 5
        states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        params = np.cumsum(rng.uniform(0.5, 1.5, size=count))
        eye = np.eye(dim, dtype=np.complex128)
        assert chain_link_amplitudes(states, None).tobytes() == chain_link_amplitudes(states, eye).tobytes()
        for got, want in zip(connection_terms(params, states, None), connection_terms(params, states, eye)):
            assert got.tobytes() == want.tobytes()


class TestOneArrayPerPass:
    def test_connection_terms_allocation_peak(self):
        # a pass holds the (M, dim) bra rows, 5.12 MB here, plus three (M,)
        # rows of sandwiches, 6.08 MB in all: no conjugated copy, no product
        # array, and the rows are released before the quotients are formed
        count, dim = 20001, 16
        states, obs = random_stack(31, count, dim)
        params = np.cumsum(rng_for(32).uniform(0.5, 1.5, size=count))
        connection_terms(params, states, obs)  # warm-up
        tracemalloc.start()
        try:
            connection_terms(params, states, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * count * dim * 16


KERNEL_BYTES = """
import hashlib
import numpy as np
from ggphase._kernels import chain_link_amplitudes, connection_terms
for count, dim in ((20001, 16), (2001, 2), (41, 7)):
    rng = np.random.default_rng(count + dim)
    states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    params = np.cumsum(rng.uniform(0.5, 1.5, size=count))
    for obs in (a + a.conj().T, None):
        values, moduli = connection_terms(params, states, obs)
        links = chain_link_amplitudes(states, obs)
        print(count, dim, obs is None, *(hashlib.sha256(x.tobytes()).hexdigest() for x in (values, moduli, links)))
"""


def test_kernel_values_do_not_depend_on_simd_dispatch():
    default, reduced = outputs_under_both_dispatches(KERNEL_BYTES)
    assert len(default.splitlines()) == 6
    assert default == reduced


def fsum_rule(values: np.ndarray) -> float:
    """math.fsum over Python floats, or the plain sum where fsum raises:
    the rule the binned sum must reproduce to the bit."""
    values = values.tolist()
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


SUM_SIZES = (1, 7, _kernels._EXACT_SUM_MIN - 1, _kernels._EXACT_SUM_MIN, _kernels._EXACT_SUM_MIN + 1, 4096, 20000)


def sum_case(kind: str, size: int, rng: np.random.Generator, pattern: list) -> np.ndarray:
    """One array of a kind the binned sum has to get right, from a seed and a
    short drawn pattern of doubles."""
    if kind == "pattern":  # the drawn doubles, repeated, then negated in part
        x = np.resize(np.array(pattern, dtype=np.float64), size)
        x[rng.random(size) < 0.5] *= -1.0
        return x
    if kind == "cancel":  # pairs that cancel exactly, around a few small terms
        half = rng.normal(size=size // 2) * np.exp2(rng.integers(-80, 80, size // 2))
        x = np.concatenate([half, -half, rng.normal(size=size % 2) * 1e-300])
        return x[rng.permutation(size)]
    scale = {"normal": np.ones(size), "wide": np.exp2(rng.integers(-1074, 1000, size).astype(float)),
             "subnormal": np.full(size, 1e-310), "huge": np.full(size, 1.7e308 / rng.choice([1.0, size, 4.0 * size]))}
    return rng.uniform(-1.0, 1.0, size) * scale[kind]


def same_double(a: float, b: float) -> bool:
    return math.isnan(a) and math.isnan(b) or a.hex() == b.hex()


class TestExactSum:
    @given(kind=st.sampled_from(["pattern", "cancel", "normal", "wide", "subnormal", "huge"]),
           size=st.sampled_from(SUM_SIZES), seed=st.integers(0, 2**32 - 1),
           pattern=st.lists(st.floats(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_to_the_bit(self, kind, size, seed, pattern):
        # st.floats() draws nan, inf, -0.0, subnormals and DBL_MAX
        x = sum_case(kind, size, np.random.default_rng(seed), pattern)
        assert same_double(_kernels.fsum(x), fsum_rule(x))

    @pytest.mark.parametrize("size", SUM_SIZES)
    def test_partials_past_the_doubles_take_the_plain_sum(self, size):
        # fsum raises on these partials: [M, M, -M, -M, ...] in order, then
        # the plain sum's inf, or a finite total the binned sum never reaches
        big = np.finfo(np.float64).max
        for x in (np.resize([big, big, -big, -big], size), np.resize([big, -big, big], size)):
            assert same_double(_kernels.fsum(x), fsum_rule(x))

    @pytest.mark.parametrize("shape", [(7,), (_kernels._EXACT_SUM_MIN,), (3, 5), (64, 64)])
    def test_complex_sum_is_the_sum_of_each_part(self, shape):
        # the one complex sum: each part of any shape by fsum's rule, apart
        rng = rng_for(25)
        z = (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)) * np.exp2(rng.integers(-60, 60, shape))
        got = _kernels.fsum_complex(z)
        assert same_double(got.real, fsum_rule(z.real.ravel())) and same_double(got.imag, fsum_rule(z.imag.ravel()))

    @pytest.mark.parametrize("values", [[0.0], [-0.0], [1.0, -1.0], [math.inf], [-math.inf, math.inf], [math.nan]])
    def test_zeros_and_non_finite_entries(self, values):
        for size in SUM_SIZES:
            x = np.resize(np.array(values), size)
            assert same_double(_kernels.fsum(x), fsum_rule(x))


SUM_BYTES = """
import numpy as np
from ggphase import _kernels
rng = np.random.default_rng(24)
for size in (1500, 4096, 20000):
    for scale in (np.ones(size), np.exp2(rng.integers(-1074, 1000, size).astype(float))):
        print(size, _kernels.fsum(rng.uniform(-1.0, 1.0, size) * scale).hex())
"""


def test_exact_sum_does_not_depend_on_simd_dispatch():
    default, reduced = outputs_under_both_dispatches(SUM_BYTES)
    assert len(default.splitlines()) == 6
    assert default == reduced
