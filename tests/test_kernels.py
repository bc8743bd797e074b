"""The hot kernels against direct per-row sandwiches, explicit
finite-difference stencils, the np.gradient derivative array and the
np.roll link form they replace."""

import tracemalloc

import numpy as np
import pytest

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


class TestConnectionTerms:
    def test_uniform_grid_stencils(self):
        # One interior index checked against the explicit second-order
        # central difference, plus both one-sided endpoint stencils.
        params = np.linspace(0.0, 1.0, 11)
        states, obs = random_stack(17, 11, 3)
        num, den = connection_terms(params, states, obs)
        h = 0.1
        d_mid = (states[6] - states[4]) / (2 * h)
        d_first = (states[1] - states[0]) / h
        d_last = (states[10] - states[9]) / h
        assert num[5] == pytest.approx(states[5].conj() @ obs @ d_mid, rel=1e-12)
        assert num[0] == pytest.approx(states[0].conj() @ obs @ d_first, rel=1e-12)
        assert num[10] == pytest.approx(states[10].conj() @ obs @ d_last, rel=1e-12)
        assert den[5] == pytest.approx(states[5].conj() @ obs @ states[5], rel=1e-12)

    def test_nonuniform_interior_stencil(self):
        params = np.array([0.0, 0.3, 1.0, 1.2])
        states, obs = random_stack(18, 4, 2)
        num, _ = connection_terms(params, states, obs)
        hm, hp = 0.3, 0.7
        d1 = (
            hm * hm * states[2]
            + (hp * hp - hm * hm) * states[1]
            - hp * hp * states[0]
        ) / (hp * hm * (hp + hm))
        assert num[1] == pytest.approx(states[1].conj() @ obs @ d1, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_steps_far_from_one_scale_the_numerators(self, scale):
        # A product of two steps would overflow (or underflow) here; the
        # weights divide in sequence, so the numerators scale as 1 / scale.
        params = np.array([0.0, 0.3, 1.0, 1.2, 2.0])
        states, obs = random_stack(19, 5, 3)
        num, den = connection_terms(params, states, obs)
        scaled_num, scaled_den = connection_terms(params * scale, states, obs)
        assert np.array_equal(scaled_den, den)
        np.testing.assert_allclose(scaled_num * scale, num, rtol=1e-14)


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
    """The link-sandwich numerators against <psi|O| applied to numpy's own
    derivative array. Both round differently by a few ulps of the largest
    term, which is of order |psi|^2 |O| dim / (smallest step)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(("label", "count", "dim", "uniform"), GRIDS, ids=[g[0] for g in GRIDS])
    def test_matches_gradient_oracle(self, label, count, dim, uniform, seed):
        rng = rng_for(900 + 10 * seed + GRIDS.index((label, count, dim, uniform)))
        params = random_grid(rng, count, uniform)
        states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        obs = random_hermitian(rng, dim).entries
        num, den = connection_terms(params, states, obs)
        want_num, want_den = connection_terms_gradient_oracle(params, states, obs)
        assert np.array_equal(den, want_den)
        scale = np.max(np.abs(states)) ** 2 * np.max(np.abs(obs)) * dim / np.min(np.diff(params))
        assert np.max(np.abs(num - want_num)) <= 1e-14 * scale

    def test_endpoint_stencils_are_first_order(self):
        # A quadratic path: the one-sided end stencils miss its curvature by
        # exactly h * psi'' / 2, which a second-order end stencil would not.
        params = np.array([0.0, 0.5, 2.0, 2.25])
        states = np.array([[1.0 + s * s, 0.0] for s in params], dtype=complex)
        num, den = connection_terms(params, states, np.eye(2, dtype=complex))
        assert num[0] == pytest.approx(states[0, 0] * (0.25 - 0.0) / 0.5, rel=1e-14)
        assert num[-1] == pytest.approx(states[-1, 0] * (2.25**2 - 4.0) / 0.25, rel=1e-14)
        # the interior stencil is exact on a quadratic: psi' = 2 s
        assert num[1] == pytest.approx(states[1, 0] * 1.0, rel=1e-14)
        assert num[2] == pytest.approx(states[2, 0] * 4.0, rel=1e-14)


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
        # a pass holds the (M, dim) bra rows, 5.12 MB here, plus (M,) rows
        # of sandwiches and weights: no conjugated copy and no product array
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
        num, den = connection_terms(params, states, obs)
        links = chain_link_amplitudes(states, obs)
        print(count, dim, obs is None, *(hashlib.sha256(x.tobytes()).hexdigest() for x in (num, den, links)))
"""


def test_kernel_values_do_not_depend_on_simd_dispatch():
    default, reduced = outputs_under_both_dispatches(KERNEL_BYTES)
    assert len(default.splitlines()) == 6
    assert default == reduced
