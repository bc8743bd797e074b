"""Geometric phases of quantum state chains and curves, generalized to an
arbitrary Hermitian observable, with the measurement, perturbation, and
scattering settings where those phases surface.

The package computes the phase of cyclic products of matrix elements
<psi_1|O|psi_2><psi_2|O|psi_3>...<psi_N|O|psi_1> and its continuum limit (a
generalized connection integrated along a curve), constructs the null curves
that turn open-path phases into loop holonomies, and reproduces the same
phase content in three dynamical guises: short-time projective-measurement
cycles, the third-order stationary energy shift, and the triple-product term
of the Born scattering series.

numpy is the only runtime dependency; the hot kernels are plain numpy.
"""

from .errors import (
    DegenerateSpectrum,
    DomainError,
    IdentityNotApplicable,
    NonOrthogonalBasis,
    OrthogonalEndpoints,
    PoleAtEnergy,
    QuadratureNotConverged,
    SingularConnection,
    SingularKernel,
    UndefinedPhase,
    UndefinedWeakValue,
)
from .hilbert import (
    DEFAULT_TOLS,
    DensityMatrix,
    Observable,
    StateVector,
    ToleranceConfig,
    matrix_element,
    principal_arg,
    relative_phase,
    weak_value,
    wrap_angle,
    wrapped_distance,
)
from .phase import (
    PhaseResult,
    bargmann_density_phase,
    generalized_phase_chain,
    in_phase,
    phase_via_weak_values,
)
from .curve import (
    ConnectionSamples,
    ParamCurve,
    connection_samples,
    curve_phase,
    gauge_transform,
    geodesic_null_curve,
    loop_holonomy,
    o_null_curve,
    reparametrize,
    triangle_holonomy,
)
from .dynamics import (
    CycleResult,
    TwoLevelKind,
    TwoLevelParams,
    UnitaryMatrix,
    evolve,
    f_mn,
    hadamard,
    pauli_x,
    projective_cycle_amplitude,
    survival_amplitude,
    two_level_phase,
    two_level_state,
)
from .perturbation import (
    EigenSystem,
    PhaseTermTable,
    ShiftSeries,
    energy_shift,
    perturbed_state,
    third_order_phase_terms,
)
from .scattering import (
    BornReport,
    GridModel,
    SeparableModel,
    born_forward_amplitude,
    born_spectral_radius,
    kernel_condition_number,
    lippmann_schwinger_solve,
    loop_integral,
    optical_theorem_residual,
    separable_born_amplitude,
    separable_tmatrix,
    triple_product_phases,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "UndefinedPhase",
    "UndefinedWeakValue",
    "IdentityNotApplicable",
    "SingularConnection",
    "OrthogonalEndpoints",
    "NonOrthogonalBasis",
    "DegenerateSpectrum",
    "SingularKernel",
    "PoleAtEnergy",
    "QuadratureNotConverged",
    # hilbert
    "ToleranceConfig",
    "DEFAULT_TOLS",
    "StateVector",
    "Observable",
    "DensityMatrix",
    "wrap_angle",
    "wrapped_distance",
    "principal_arg",
    "matrix_element",
    "relative_phase",
    "weak_value",
    # phase
    "PhaseResult",
    "generalized_phase_chain",
    "bargmann_density_phase",
    "phase_via_weak_values",
    "in_phase",
    # curve
    "ParamCurve",
    "ConnectionSamples",
    "connection_samples",
    "curve_phase",
    "geodesic_null_curve",
    "o_null_curve",
    "loop_holonomy",
    "triangle_holonomy",
    "gauge_transform",
    "reparametrize",
    # dynamics
    "UnitaryMatrix",
    "TwoLevelParams",
    "TwoLevelKind",
    "CycleResult",
    "evolve",
    "projective_cycle_amplitude",
    "two_level_state",
    "two_level_phase",
    "pauli_x",
    "hadamard",
    "f_mn",
    "survival_amplitude",
    # perturbation
    "EigenSystem",
    "ShiftSeries",
    "PhaseTermTable",
    "energy_shift",
    "perturbed_state",
    "third_order_phase_terms",
    # scattering
    "GridModel",
    "SeparableModel",
    "BornReport",
    "lippmann_schwinger_solve",
    "kernel_condition_number",
    "born_spectral_radius",
    "born_forward_amplitude",
    "triple_product_phases",
    "loop_integral",
    "separable_tmatrix",
    "separable_born_amplitude",
    "optical_theorem_residual",
]
