"""Discrete geometric phases: cyclic chains, the density-matrix trace form,
and the weak-value decomposition.

The central quantity is the phase of the cyclic product of matrix elements
<psi_1|O|psi_2><psi_2|O|psi_3>...<psi_N|O|psi_1>. With O = None (identity) it
is the usual N-state Pancharatnam phase; for general Hermitian O it is the
operator-generalized phase. Normalization denominators are real positive and
never shift the Arg, so states may be unnormalized throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import IdentityNotApplicable, InvalidArgument, Overflow, UndefinedPhase
from .hilbert import (
    DEFAULT_TOLS,
    Observable,
    StateVector,
    ToleranceConfig,
    observable_entries,
    principal_arg,
    relative_phase,
    weak_value,
    wrap_angle,
)

__all__ = [
    "PhaseResult",
    "generalized_phase_chain",
    "bargmann_density_phase",
    "phase_via_weak_values",
    "in_phase",
]


@dataclass(frozen=True)
class PhaseResult:
    """A phase value plus the diagnostics guarding its definedness.

    Attributes
    ----------
    value : float
        The phase, in (-pi, pi].
    min_link_modulus : float
        Smallest |amplitude| encountered while accumulating the phase.
    chain_length : int
        Number of states (or curve samples) that produced the value.
    """

    value: float
    min_link_modulus: float
    chain_length: int


def generalized_phase_chain(
    states: Sequence[StateVector],
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> PhaseResult:
    """Cyclic chain phase of N >= 3 states under an observable.

    Accumulates per-link Args and wraps once at the end, which is immune to
    the modulus underflow a literal product would suffer on long chains.

    Parameters
    ----------
    states : sequence of StateVector
        At least three states; the chain closes cyclically.
    O : Observable or None
        None means identity, giving the plain Pancharatnam chain phase.

    Returns
    -------
    PhaseResult

    Raises
    ------
    UndefinedPhase
        Naming the first link whose amplitude modulus is <= tol_zero.
    """
    if len(states) < 3:
        raise InvalidArgument(f"chain needs at least 3 states, got {len(states)}")
    try:
        stack = np.array([s.components for s in states])
    except ValueError:  # ragged rows: numpy refuses the inhomogeneous shape
        raise InvalidArgument("states must share one dimension") from None
    amps = _kernels.chain_link_amplitudes(stack, observable_entries(O, stack.shape[1]))
    moduli = np.abs(amps)
    min_modulus = float(moduli.min())
    if min_modulus <= tol.tol_zero:
        l = int(np.argmax(moduli <= tol.tol_zero))
        raise UndefinedPhase(
            f"chain phase undefined: link {l} -> {(l + 1) % len(states)} has "
            f"|amplitude| = {moduli[l]:.3e} <= tol_zero",
            link_index=l,
        )
    value = wrap_angle(math.fsum(np.angle(amps).tolist()))
    return PhaseResult(value, min_modulus, len(states))


def bargmann_density_phase(
    states: Sequence[StateVector],
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> PhaseResult:
    """Three-state phase as Arg Tr(rho_1 O rho_2 O rho_3 O).

    Equals :func:`generalized_phase_chain` on the same inputs; computing it
    through density matrices makes the gauge invariance manifest. Each factor
    rho O = |psi><psi|O / <psi|psi> is the outer product of the state with its
    bra row <psi|O|, the state first divided by its largest modulus: rho does
    not change, and the outer product of a huge state stays a double. A trace
    past the doubles raises Overflow.
    """
    if len(states) != 3:
        raise InvalidArgument(f"density-matrix form takes exactly 3 states, got {len(states)}")
    obs = observable_entries(O, states[0].dim)
    scaled = [s.components / np.abs(s.components).max() for s in states]
    with np.errstate(over="ignore", invalid="ignore"):  # a trace past the doubles is refused below
        r1, r2, r3 = (np.outer(v, _kernels.bra_rows(v, obs)) / np.vdot(v, v).real for v in scaled)
        trace = complex(np.trace(r1 @ r2 @ r3))
    modulus = math.hypot(trace.real, trace.imag)
    if not math.isfinite(modulus):
        raise Overflow("the density-matrix trace overflows a double")
    if modulus <= tol.tol_zero:
        raise UndefinedPhase(f"density phase undefined: |trace| = {modulus:.3e} <= tol_zero")
    return PhaseResult(principal_arg(trace), modulus, 3)


def phase_via_weak_values(
    states: Sequence[StateVector],
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> float:
    """Three-state O phase reconstructed from weak values.

    Returns wrap(Arg(w_O(1,2) w_O(2,3) w_O(3,1)) + gamma_identity), which
    equals the direct chain phase whenever the decomposition applies.

    Raises
    ------
    IdentityNotApplicable
        If any pairwise inner product vanishes; the decomposition divides
        by all three.
    UndefinedPhase
        Propagated when an O-link vanishes.
    """
    if len(states) != 3:
        raise InvalidArgument(f"weak-value decomposition takes exactly 3 states, got {len(states)}")
    pairs = [(0, 1), (1, 2), (2, 0)]
    ws = []
    for a, b in pairs:
        overlap = np.vdot(states[a].components, states[b].components)
        if abs(overlap) <= tol.tol_zero:
            raise IdentityNotApplicable(
                f"states {a} and {b} are orthogonal; the weak-value identity does not hold"
            )
        ws.append(weak_value(states[a], O, states[b], tol=tol))
    gamma_identity = generalized_phase_chain(states, None, tol=tol).value
    # the product's Arg and modulus factor by factor: the product itself may leave the doubles
    if math.prod(math.hypot(w.real, w.imag) for w in ws) <= tol.tol_zero:
        raise UndefinedPhase("weak-value product has vanishing modulus")
    return wrap_angle(math.fsum(map(principal_arg, ws)) + gamma_identity)


def in_phase(
    A: StateVector,
    B: StateVector,
    O: Observable | None = None,
    tol: ToleranceConfig = DEFAULT_TOLS,
) -> bool:
    """True iff the (O) relative phase of A and B vanishes within tol_phase.

    Note the relation is not transitive: A in phase with B and B with C does
    not make A in phase with C.
    """
    return abs(relative_phase(A, B, O, tol=tol)) <= tol.tol_phase
