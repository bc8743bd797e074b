"""Hot numeric kernels: cyclic chain-link amplitudes over a stack of states,
and the sampled connection along a discretized curve.

Every quantity is built from the O-sandwich <psi|O|phi>, spelled once:
:func:`bra_rows` gives the rows <psi_l|O| of a stack of states, and
:func:`sandwiches` contracts them row by row with kets,
``np.einsum("ij,ij->i", bra, kets)``. An operator of None is the identity, so
the rows are then ``states.conj()`` with no matmul. A chain pass also copies
its kets rolled by one; chains are short, and two sandwich calls in place of
the copy cost more than it. The chain phase multiplies the links
<psi_l|O|psi_{l+1}>. The connection Im(<psi_l|O|d psi_l> / den_l), with
den_l = <psi_l|O|psi_l>, is the limit of those same links. On the grid
h1 = s_l - s_{l-1}, h2 = s_{l+1} - s_l the second-order non-uniform central
difference weighs psi_{l-1}, psi_l, psi_{l+1} by the real a, -(a + c), c, and
the middle term over den_l is real, so it drops out:

    A_l = a_l Im(<psi_l|O|psi_{l-1}> / den_l) + c_l Im(<psi_l|O|psi_{l+1}> / den_l),
    a = -(h2 / (h1 + h2)) / h1,  c = (h1 / (h1 + h2)) / h2,

with the first-order one-sided ends Im(<psi_0|O|psi_1> / den_0) / h and
-Im(<psi_L|O|psi_{L-1}> / den_L) / h. :func:`stencil` is that one form, on
links already over their own row's denominator, so no term leaves the doubles
while the connection is a double; its weights divide in sequence and never
multiply two steps, so steps far from 1 neither overflow nor underflow. No
derivative array is formed. :func:`connection_terms` feeds it the sandwiches
of a curve, and a null segment its closed-form links. A connection pass over
M states holds one (M, dim) array, the bra rows, conjugated in place and
released before the quotients are formed; the sandwiches form no product
array and the kets are views of the states. At M = 20001 and dim 16 a pass
peaks at 6.08 MB under tracemalloc: the 5.12 MB of bra rows and three (M,)
rows of sandwiches.

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
    "fsum_complex",
    "bra_rows",
    "sandwiches",
    "chain_link_amplitudes",
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


def fsum_complex(values: np.ndarray) -> complex:
    """The one complex exact sum: the :func:`fsum` of each part of a complex array, apart."""
    return complex(fsum(values.real.ravel()), fsum(values.imag.ravel()))


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


def stencil(params: np.ndarray, bwd: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """Connection values on the grid params, by the stencil of the module docstring,
    from bwd[l] = Im(<psi_{l+1}|O|psi_l> / den_{l+1}) and fwd[l] = Im(<psi_l|O|psi_{l+1}> / den_l)."""
    h = np.diff(params)
    h1, h2 = h[:-1], h[1:]
    total = h1 + h2
    values = np.empty(h.shape[0] + 1)
    np.multiply(-(h2 / total) / h1, bwd[:-1], out=values[1:-1])
    values[1:-1] += (h1 / total) / h2 * fwd[1:]
    values[0], values[-1] = fwd[0] / h[0], -bwd[-1] / h[-1]
    return values


def connection_terms(
    params: np.ndarray, states: np.ndarray, obs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Connection values Im(<psi|obs|D psi> / <psi|obs|psi>) along a
    discretized curve, by the :func:`stencil` of the link sandwiches over
    their own row's complex denominator, and the moduli |<psi|obs|psi>|;
    obs None is the identity."""
    params = np.asarray(params, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    # inf or nan values, and the nan of a vanishing denominator: the caller reports them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bra = bra_rows(states, obs)
        den = sandwiches(bra, states)
        fwd = sandwiches(bra[:-1], states[1:])  # <psi_l|O|psi_{l+1}>, l = 0 .. M-2
        bwd = sandwiches(bra[1:], states[:-1])  # <psi_{l+1}|O|psi_l>, l = 0 .. M-2
        del bra
        return stencil(params, (bwd / den[1:]).imag, (fwd / den[:-1]).imag), np.abs(den)
