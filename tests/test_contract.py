"""The argument contract of every public number and array argument.

A malformed argument raises InvalidArgument, and a well-posed question
without an answer raises a DomainError. Nothing else comes out: no bare
TypeError or OverflowError from a conversion, no numpy warning, and no
return value that is not a finite number.
"""

import dataclasses
import math

import numpy as np
import pytest

from ggphase import (
    DensityMatrix,
    DomainError,
    EigenSystem,
    GridModel,
    InvalidArgument,
    Observable,
    ParamCurve,
    SeparableModel,
    StateVector,
    ToleranceConfig,
    TwoLevelParams,
    UnitaryMatrix,
    bargmann_density_phase,
    energy_shift,
    evolve,
    f_mn,
    gauge_transform,
    geodesic_null_curve,
    in_phase,
    loop_integral,
    matrix_element,
    o_null_curve,
    perturbed_state,
    projective_cycle_amplitude,
    relative_phase,
    reparametrize,
    survival_amplitude,
    weak_value,
)

H = Observable(np.diag([1.0, 2.0, 4.0]))
V = Observable([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]])
E = [StateVector.basis_vector(3, k) for k in range(3)]
SYSTEM = EigenSystem.standard([1.0, 2.0, 4.0])
CURVE = ParamCurve([0.0, 1.0, 2.0], [[1.0, 0.0], [1.0, 0.1], [1.0, 0.2]])
A, B = StateVector([1.0, 0.0]), StateVector([0.6, 0.8])
MODEL = SeparableModel(-0.1, 1.0, 1.0)

# Each entry point with one number, or one array entry, replaced by x.
ENTRY_POINTS = {
    "StateVector": lambda x: StateVector([x, 1.0]),
    "StateVector.normalized": lambda x: StateVector([x, x]).normalized(),
    "Observable": lambda x: Observable([[x, 0.0], [0.0, 1.0]]),
    "DensityMatrix": lambda x: DensityMatrix([[1.0, x], [x, 0.0]]),
    "UnitaryMatrix": lambda x: UnitaryMatrix([[x, 0.0], [0.0, 1.0]]),
    "ToleranceConfig": lambda x: ToleranceConfig(tol_zero=x),
    "TwoLevelParams": lambda x: TwoLevelParams(x, 0.0),
    "evolve": lambda x: evolve(H, x),
    "projective_cycle_amplitude.epsilon": lambda x: projective_cycle_amplitude(H, E, x),
    "projective_cycle_amplitude.basis": lambda x: projective_cycle_amplitude(
        H, [StateVector([x, 0.0, 0.0]), E[1], E[2]], 0.1),
    "f_mn": lambda x: f_mn(x, 2.0, 3.0, 1.0),
    "survival_amplitude": lambda x: survival_amplitude(H, V, 0, x),
    "EigenSystem.energies": lambda x: EigenSystem([1.0, 2.0, x], None),
    "EigenSystem.basis": lambda x: EigenSystem([1.0, 2.0], [StateVector([x, 0.0]), StateVector([0.0, 1.0])]),
    "energy_shift": lambda x: energy_shift(SYSTEM, V, 0, x),
    "perturbed_state": lambda x: perturbed_state(SYSTEM, V, 0, x),
    "GridModel.energies": lambda x: GridModel(["a", "b", "c"], [1.0, 2.0, x], 1.0, V),
    "GridModel.mass": lambda x: GridModel(["a", "b", "c"], [1.0, 2.0, 3.0], x, V),
    "GridModel.greens_epsilon": lambda x: GridModel(["a", "b", "c"], [1.0, 2.0, 3.0], 1.0, V, x),
    "SeparableModel": lambda x: SeparableModel(x, 1.0, 1.0),
    "loop_integral": lambda x: loop_integral(MODEL, x),
    "ParamCurve.params": lambda x: ParamCurve([0.0, 1.0, x], [[1.0, 0.0]] * 3),
    "ParamCurve.states": lambda x: ParamCurve([0.0, 1.0, 2.0], [[1.0, 0.0], [x, 0.0], [1.0, 0.0]]),
    "gauge_transform": lambda x: gauge_transform(CURVE, [0.0, x, 0.0]),
    "reparametrize": lambda x: reparametrize(CURVE, [0.0, 1.0, x]),
    "o_null_curve": lambda x: o_null_curve(A, B, None, tau=x, M=5),
    "geodesic_null_curve": lambda x: geodesic_null_curve(A, B, tau=x, M=5),
    "matrix_element": lambda x: matrix_element(StateVector([x, x]), Observable([[x, 0.0], [0.0, 1.0]]),
                                               StateVector([x, x])),
    "relative_phase": lambda x: relative_phase(StateVector([x, x]), StateVector([x, -x])),
    "in_phase": lambda x: in_phase(StateVector([x, x]), StateVector([x, -x])),
    "weak_value": lambda x: weak_value(StateVector([x, 0.0]), None, StateVector([x, 0.0])),
}

BAD_NUMBERS = {"string": "one", "int past the doubles": 10**400, "nan": math.nan, "inf": math.inf}

# A computation that still overflows on a 1e200 coupling, past the argument
# check that accepts it: coupling**2 raises a bare OverflowError.
HUGE_ESCAPES = {"perturbed_state"}


def _finite(value) -> bool:
    """Whether every number a result carries is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    for attr in ("components", "entries", "coeffs", "energies"):
        if hasattr(value, attr):
            return _finite(getattr(value, attr))
    return bool(np.isfinite(np.asarray(value, dtype=np.complex128)).all())


@pytest.mark.filterwarnings("error")
class TestArgumentContract:
    @pytest.mark.parametrize("bad", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_bad_number_is_an_invalid_argument(self, entry, bad):
        with pytest.raises(InvalidArgument):
            ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("entry", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=OverflowError))
        if name in HUGE_ESCAPES else name for name in ENTRY_POINTS
    ])
    def test_huge_entries_stay_in_the_taxonomy(self, entry):
        try:
            result = ENTRY_POINTS[entry](1e200)
        except (InvalidArgument, DomainError):
            return
        assert _finite(result)

    @pytest.mark.parametrize("entry", ["relative_phase", "in_phase", "weak_value"])
    def test_an_amplitude_past_the_doubles_has_no_answer(self, entry):
        # <A|B> sums products of 1e400: the orthogonal pair has no phase, and
        # <C|C> = 1e400 of the weak value is not a double
        with pytest.raises(DomainError):
            ENTRY_POINTS[entry](1e200)

    def test_a_numeric_string_is_refused_as_a_number(self):
        # an array entry, by contrast, converts as numpy converts it
        calls = (lambda: f_mn("1", 2.0, 3.0, 1.0), lambda: evolve(H, "0.5"),
                 lambda: ToleranceConfig(tol_herm=b"1"))
        for call in calls:
            with pytest.raises(InvalidArgument, match="must be a finite number"):
                call()

    def test_unit_norm_past_the_doubles(self):
        unit = StateVector([1e200, -1e200j]).normalized()
        np.testing.assert_allclose(unit.components, [2**-0.5, -1j * 2**-0.5], rtol=1e-15)
        # an ordinary state keeps its bits
        v = np.array([0.3, 0.4j, 1.2])
        assert np.array_equal(StateVector(v).normalized().components, v / math.sqrt(np.vdot(v, v).real))

    @pytest.mark.xfail(strict=True, raises=RuntimeWarning)
    @pytest.mark.parametrize("build", [
        lambda s: DensityMatrix.from_state(s),
        lambda s: bargmann_density_phase([s, s, s]),
    ], ids=["DensityMatrix.from_state", "bargmann_density_phase"])
    def test_density_forms_of_huge_states(self, build):
        # both divide an outer product past the doubles by a norm past them
        try:
            build(StateVector([1e200, 1e200]))
        except (InvalidArgument, DomainError):
            pass
