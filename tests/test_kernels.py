"""The hot kernels against direct per-row sandwiches and explicit
finite-difference stencils."""

import numpy as np
import pytest

from ggphase._kernels import chain_link_amplitudes, connection_terms

from conftest import random_hermitian, rng_for


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
