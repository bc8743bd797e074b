"""Hot numeric kernels: cyclic chain-link amplitudes over a stack of states,
and per-sample connection numerators/denominators along a discretized curve.

Every quantity is built from the O-sandwich <psi|O|phi>. :func:`bra_rows`
gives the rows <psi_l|O| of a stack of states, and a sandwich <psi_l|O|ket_l>
is the sum over row l of ``bra * ket``. An operator of None is the identity,
so the rows are then ``states.conj()`` with no matmul. The chain phase
multiplies the links <psi_l|O|psi_{l+1}>. The connection numerator
<psi_l|O|d psi_l> is the limit of those same links: on the grid
h1 = s_l - s_{l-1}, h2 = s_{l+1} - s_l it is

    a_l <psi_l|O|psi_{l-1}> + b_l <psi_l|O|psi_l> + c_l <psi_l|O|psi_{l+1}>,
    a = -(h2 / (h1 + h2)) / h1,  b = (h2 - h1) / h1 / h2,  c = (h1 / (h1 + h2)) / h2,

the second-order non-uniform central difference, with the first-order one-sided
stencils (<psi_0|O|psi_1> - <psi_0|O|psi_0>) / h and
(<psi_L|O|psi_L> - <psi_L|O|psi_{L-1}>) / h at the two ends. The weights divide
in sequence and never multiply two steps together, so grids with steps far
above 1 or far below it neither overflow nor underflow. No derivative array of
the states is ever formed. :func:`fsum` is the one correctly rounded sum.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "fsum",
    "bra_rows",
    "chain_link_amplitudes",
    "connection_terms",
]


def fsum(values: np.ndarray) -> float:
    """math.fsum of an array, correctly rounded; where the sum leaves the
    doubles and fsum would raise, the inf or nan of a plain sum instead."""
    values = values.tolist()  # fsum iterates Python floats faster than numpy scalars
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf + -inf
        return sum(values)


def bra_rows(states: np.ndarray, obs: np.ndarray | None) -> np.ndarray:
    """The rows <psi_l|O| of a stack of states (or the one row of a single
    state) under a (dim, dim) operator, or the identity when obs is None."""
    return states.conj() if obs is None else states.conj() @ obs


def _sandwiches(bra: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Row by row, <psi_l|O|ket_l> = sum_j bra[l, j] kets[l, j]."""
    return (bra * kets).sum(axis=1)


def chain_link_amplitudes(states: np.ndarray, obs: np.ndarray | None) -> np.ndarray:
    """Cyclic link amplitudes a_l = <psi_l| obs |psi_{l+1 mod N}> for an
    (N, dim) stack of states under a (dim, dim) operator, or the identity
    when obs is None."""
    states = np.asarray(states, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan links are the caller's to report
        return _sandwiches(bra_rows(states, obs), np.concatenate((states[1:], states[:1])))


def connection_terms(
    params: np.ndarray, states: np.ndarray, obs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Connection numerators <psi|obs|D psi> and denominators <psi|obs|psi>
    along a discretized curve, by the stencils of the module docstring from
    the three link sandwiches; obs None is the identity. The rows may be
    coefficients over a basis, with obs the Gram matrix <b_k|O|b_m> of its rows.
    """
    params = np.asarray(params, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    h = np.diff(params)
    h1, h2 = h[:-1], h[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan terms: the caller reports them
        bra = bra_rows(states, obs)
        den = _sandwiches(bra, states)
        fwd = _sandwiches(bra[:-1], states[1:])  # <psi_l|O|psi_{l+1}>, l = 0 .. M-2
        bwd = _sandwiches(bra[1:], states[:-1])  # <psi_l|O|psi_{l-1}>, l = 1 .. M-1
        num = np.empty_like(den)
        num[1:-1] = (
            (-(h2 / (h1 + h2)) / h1) * bwd[:-1]
            + ((h2 - h1) / h1 / h2) * den[1:-1]
            + ((h1 / (h1 + h2)) / h2) * fwd[1:]
        )
        num[0] = (fwd[0] - den[0]) / h[0]
        num[-1] = (den[-1] - bwd[-1]) / h[-1]
    return num, den
