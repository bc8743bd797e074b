"""Hot numeric kernels: cyclic chain-link amplitudes over a stack of states,
and per-sample connection numerators/denominators along a discretized curve.

Every quantity is built from the O-sandwich <psi|O|phi>, spelled once:
:func:`bra_rows` gives the rows <psi_l|O| of a stack of states, and
:func:`sandwiches` contracts them row by row with kets,
``np.einsum("ij,ij->i", bra, kets)``. An operator of None is the identity, so
the rows are then ``states.conj()`` with no matmul. A connection pass over M
states holds one (M, dim) array, the bra rows: they are conjugated in place,
the sandwiches form no product array, and the kets are views of the states.
A chain pass also copies its kets rolled by one; chains are short, and two
sandwich calls in place of the copy cost more than it. The chain phase
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
the states is ever formed. :func:`stencil_weights` forms the weights of a grid
and :func:`stencil` applies them to any links: :func:`connection_terms` feeds
it the sandwiches of a curve, and a null segment its closed-form links, each
over its own row's real denominator, so that b drops out of Im(num / den).

:func:`fsum` is the one correctly rounded sum, math.fsum's value to the bit.
From _EXACT_SUM_MIN entries it is R. Neal's exponent-binned exact sum
(arXiv:1505.05571): np.frexp gives each double's exponent and 53-bit integer
mantissa, whose high 27 and low 26 bits np.bincount sums per exponent (every
partial is an integer below 2^53, so exact); the bins add as Python ints and
int true division rounds once. Other sizes, non-finite entries, n max|x|
past 2^1023 (where fsum's partials may overflow) and an exact zero take
math.fsum over Python floats, or the plain sum where fsum raises.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "fsum",
    "bra_rows",
    "sandwiches",
    "chain_link_amplitudes",
    "stencil_weights",
    "stencil",
    "connection_terms",
]


# Size from which the binned sum is as fast as math.fsum (CPython 3.11, numpy 2.4):
# 256 entries took 9 us by fsum and 27 us binned, 1024 took 39 and 39, 2048 104 and 62.
_EXACT_SUM_MIN = 1024


def fsum(values: np.ndarray) -> float:
    """math.fsum of a 1-d float64 array, correctly rounded, by the binned sum
    of the module docstring from _EXACT_SUM_MIN entries; where the sum leaves
    the doubles and fsum would raise, the inf or nan of a plain sum instead."""
    n = values.shape[0]
    if _EXACT_SUM_MIN <= n < 2**25:  # below 2^25 entries every bin stays below 2^53
        mant, exps = np.frexp(values)  # x = mant 2^exps, 1/2 <= |mant| < 1
        top, bottom = int(exps.max()), int(exps.min())
        if top + (n - 1).bit_length() <= 1023:  # n max|x| <= 2^1023
            mant *= 2.0**27
            low, high = np.modf(mant)  # |high| < 2^27, and 2^26 low is an integer below 2^26
            low *= 2.0**26
            exps -= bottom  # x = (2^26 high + 2^26 low) 2^(exps + bottom - 53)
            bins = np.bincount(exps, weights=low, minlength=top - bottom + 27)
            bins[26:] += np.bincount(exps, weights=high, minlength=top - bottom + 1)
            bits = np.flatnonzero(bins)
            try:  # int() of an inf or nan bin raises: a non-finite entry
                total = sum(map(int.__lshift__, map(int, bins[bits].tolist()), bits.tolist()))
            except (OverflowError, ValueError):
                total = 0
            if total:  # one rounding, by int true division or int to float
                return total / (1 << 53 - bottom) if bottom < 53 else float(total << bottom - 53)
    values = values.tolist()  # fsum iterates Python floats faster than numpy scalars
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf + -inf
        return sum(values)


def bra_rows(states: np.ndarray, obs: np.ndarray | None) -> np.ndarray:
    """The rows <psi_l|O| of a stack of states (or the one row of a single
    state) under a (dim, dim) operator, or the identity when obs is None.
    conj(psi) O is formed as conj(psi conj(O)), conjugated in place, so no
    conjugated copy of the states is made."""
    if obs is None:
        return states.conj()
    bra = states @ obs.conj()
    return np.conjugate(bra, out=bra)


def sandwiches(bra: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Row by row, <psi_l|O|ket_l> = sum_j bra[l, j] kets[l, j], with no product array."""
    return np.einsum("ij,ij->i", bra, kets)


def chain_link_amplitudes(states: np.ndarray, obs: np.ndarray | None) -> np.ndarray:
    """Cyclic link amplitudes a_l = <psi_l| obs |psi_{l+1 mod N}> for an
    (N, dim) stack of states under a (dim, dim) operator, or the identity
    when obs is None."""
    states = np.asarray(states, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan links are the caller's to report
        return sandwiches(bra_rows(states, obs), np.concatenate((states[1:], states[:1])))


def stencil_weights(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The steps h of a grid and the weights a, b, c of its interior stencil
    (module docstring), each divided in sequence."""
    h = np.diff(params)
    h1, h2 = h[:-1], h[1:]
    total = h1 + h2
    return h, -(h2 / total) / h1, (h2 - h1) / h1 / h2, (h1 / total) / h2


def stencil(weights: tuple, bwd: np.ndarray, den: np.ndarray | None, fwd: np.ndarray) -> np.ndarray:
    """Connection numerators from the links fwd[l] = <psi_l|O|psi_{l+1}> and
    bwd[l] = <psi_{l+1}|O|psi_l> and the denominators den[l] = <psi_l|O|psi_l>,
    by the stencils of the module docstring with the :func:`stencil_weights`
    of the grid. A den of None drops the b den term, as for links already
    divided by real denominators, whose b term is real."""
    h, a, b, c = weights
    num = np.empty(h.shape[0] + 1, np.result_type(bwd, fwd))
    np.multiply(a, bwd[:-1], out=num[1:-1])
    first, last = fwd[0], -bwd[-1]
    if den is not None:
        num[1:-1] += b * den[1:-1]
        first, last = fwd[0] - den[0], den[-1] - bwd[-1]
    num[1:-1] += c * fwd[1:]
    num[0], num[-1] = first / h[0], last / h[-1]
    return num


def connection_terms(
    params: np.ndarray, states: np.ndarray, obs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Connection numerators <psi|obs|D psi> and denominators <psi|obs|psi>
    along a discretized curve, by the :func:`stencil` of the three link
    sandwiches; obs None is the identity."""
    params = np.asarray(params, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan terms: the caller reports them
        bra = bra_rows(states, obs)
        den = sandwiches(bra, states)
        fwd = sandwiches(bra[:-1], states[1:])  # <psi_l|O|psi_{l+1}>, l = 0 .. M-2
        bwd = sandwiches(bra[1:], states[:-1])  # <psi_{l+1}|O|psi_l>, l = 0 .. M-2
        return stencil(stencil_weights(params), bwd, den, fwd), den
