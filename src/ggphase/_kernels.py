"""Hot numeric kernels: cyclic chain-link amplitudes over a stack of states,
and per-sample connection numerators/denominators along a discretized curve.

Both are built from the same link sandwiches. With ``bra = states.conj() @ obs``
each row l of ``bra`` is <psi_l|O|, and a sandwich <psi_l|O|ket_l> is the sum
over row l of ``bra * ket``. The chain phase multiplies the links
<psi_l|O|psi_{l+1}>. The connection numerator <psi_l|O|d psi_l> is the limit of
those same links: on the grid h1 = s_l - s_{l-1}, h2 = s_{l+1} - s_l it is

    a_l <psi_l|O|psi_{l-1}> + b_l <psi_l|O|psi_l> + c_l <psi_l|O|psi_{l+1}>,
    a = -h2 / (h1 (h1 + h2)),  b = (h2 - h1) / (h1 h2),  c = h1 / (h2 (h1 + h2)),

the second-order non-uniform central difference, with the first-order one-sided
stencils (<psi_0|O|psi_1> - <psi_0|O|psi_0>) / h and
(<psi_L|O|psi_L> - <psi_L|O|psi_{L-1}>) / h at the two ends. No derivative
array of the states is ever formed. An operator of None is the identity, so
``bra`` is then ``states.conj()`` with no matmul.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "chain_link_amplitudes",
    "connection_terms",
]


def _sandwiches(bra: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Row by row, <psi_l|O|ket_l> = sum_j bra[l, j] kets[l, j]."""
    return (bra * kets).sum(axis=1)


def chain_link_amplitudes(states: np.ndarray, obs: np.ndarray | None) -> np.ndarray:
    """Cyclic link amplitudes a_l = <psi_l| obs |psi_{l+1 mod N}> for an
    (N, dim) stack of states under a (dim, dim) operator, or the identity
    when obs is None."""
    states = np.asarray(states, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan links are the caller's to report
        bra = states.conj() if obs is None else states.conj() @ obs
        return _sandwiches(bra, np.concatenate((states[1:], states[:1])))


def connection_terms(
    params: np.ndarray, states: np.ndarray, obs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Connection numerators <psi|obs|D psi> and denominators <psi|obs|psi>
    along a discretized curve; obs None is the identity.

    The numerator at an interior sample l is a_l <psi_l|O|psi_{l-1}> +
    b_l <psi_l|O|psi_l> + c_l <psi_l|O|psi_{l+1}>, with the weights
    a = -h2/(h1(h1+h2)), b = (h2-h1)/(h1 h2), c = h1/(h2(h1+h2)) of the
    second-order central difference on the (possibly non-uniform) grid,
    h1 = s_l - s_{l-1} and h2 = s_{l+1} - s_l. The two ends use the
    first-order one-sided stencils. Only the three link sandwiches are
    computed; the derivative of the states is never formed.
    """
    params = np.asarray(params, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    bra = states.conj() if obs is None else states.conj() @ obs
    den = _sandwiches(bra, states)
    fwd = _sandwiches(bra[:-1], states[1:])  # <psi_l|O|psi_{l+1}>, l = 0 .. M-2
    bwd = _sandwiches(bra[1:], states[:-1])  # <psi_l|O|psi_{l-1}>, l = 1 .. M-1
    h = np.diff(params)
    h1, h2 = h[:-1], h[1:]
    num = np.empty_like(den)
    num[1:-1] = (
        (-h2 / (h1 * (h1 + h2))) * bwd[:-1]
        + ((h2 - h1) / (h1 * h2)) * den[1:-1]
        + (h1 / (h2 * (h1 + h2))) * fwd[1:]
    )
    num[0] = (fwd[0] - den[0]) / h[0]
    num[-1] = (den[-1] - bwd[-1]) / h[-1]
    return num, den
