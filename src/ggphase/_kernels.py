"""Hot numeric kernels: cyclic chain-link amplitudes over a stack of states,
and per-sample connection numerators/denominators along a discretized curve.

Both are row sums against one shared product, ``bra = states.conj() @ obs``,
so each row l of ``bra`` is <psi_l|O| and a sandwich <psi_l|O|ket_l> is the
sum over row l of ``bra * ket``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "chain_link_amplitudes",
    "connection_terms",
]


def chain_link_amplitudes(states: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Cyclic link amplitudes a_l = <psi_l| obs |psi_{l+1 mod N}> for an
    (N, dim) stack of states under a (dim, dim) operator."""
    states = np.asarray(states, dtype=np.complex128)
    return ((states.conj() @ obs) * np.roll(states, -1, axis=0)).sum(axis=1)


def connection_terms(
    params: np.ndarray, states: np.ndarray, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Connection numerators <psi|obs|D psi> and denominators <psi|obs|psi>
    along a discretized curve.

    Derivatives use second-order central differences on the (possibly
    non-uniform) parameter grid and first-order one-sided stencils at the
    endpoints.
    """
    params = np.asarray(params, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    bra = states.conj() @ obs
    dstates = np.gradient(states, params, axis=0, edge_order=1)
    return (bra * dstates).sum(axis=1), (bra * states).sum(axis=1)
