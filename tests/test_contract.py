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
    DomainError,
    EigenSystem,
    GridModel,
    InvalidArgument,
    Observable,
    Overflow,
    ParamCurve,
    SeparableModel,
    StateVector,
    ToleranceConfig,
    TwoLevelParams,
    bargmann_density_phase,
    born_forward_amplitude,
    energy_shift,
    evolve,
    f_mn,
    gauge_transform,
    geodesic_null_curve,
    in_phase,
    lippmann_schwinger_solve,
    loop_integral,
    matrix_element,
    o_null_curve,
    perturbed_state,
    phase_via_weak_values,
    projective_cycle_amplitude,
    relative_phase,
    reparametrize,
    separable_born_amplitude,
    survival_amplitude,
    third_order_phase_terms,
    triangle_holonomy,
    triple_product_phases,
    two_level_phase,
    weak_value,
)

H = Observable(np.diag([1.0, 2.0, 4.0]))
V = Observable([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]])
E = [StateVector.basis_vector(3, k) for k in range(3)]
SYSTEM = EigenSystem.standard([1.0, 2.0, 4.0])
CURVE = ParamCurve([0.0, 1.0, 2.0], [[1.0, 0.0], [1.0, 0.1], [1.0, 0.2]])
A, B = StateVector([1.0, 0.0]), StateVector([0.6, 0.8])
MODEL = SeparableModel(-0.1, 1.0, 1.0)
TRIPLE = [StateVector([1.0, 0.3j]), StateVector([0.2, 1.0]), StateVector([1.0, 1.0])]

# Each entry point with one number, or one array entry, replaced by x.
ENTRY_POINTS = {
    "StateVector": lambda x: StateVector([x, 1.0]),
    "StateVector.normalized": lambda x: StateVector([x, x]).normalized(),
    "Observable": lambda x: Observable([[x, 0.0], [0.0, 1.0]]),
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
    "phase_via_weak_values": lambda x: phase_via_weak_values(TRIPLE, Observable([[x, 0.5], [0.5, 2.0]])),
    "bargmann_density_phase": lambda x: bargmann_density_phase(TRIPLE, Observable([[x, 0.5], [0.5, 2.0]])),
}

BAD_NUMBERS = {"string": "one", "int past the doubles": 10**400, "nan": math.nan, "inf": math.inf}


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

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
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

    def test_density_phase_of_huge_states(self):
        # each state is scaled into the doubles before its outer product
        s = StateVector([1e200, 1e200])
        assert bargmann_density_phase([s, s, s]).value == 0.0

    def test_a_perturbed_state_past_the_doubles_overflows(self):
        huge_v = Observable(np.asarray(V.entries) * 1e200)
        for v, coupling in ((V, 1e200), (huge_v, 1.0)):
            with pytest.raises(Overflow):
                perturbed_state(SYSTEM, v, 0, coupling)
        # no second-order term: the state [1, -1e199, 0] is a double
        first_order_only = Observable([[0.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
        state = perturbed_state(SYSTEM, first_order_only, 0, 1e200)
        np.testing.assert_allclose(state.components, [1.0, -1e199, 0.0], rtol=1e-15)

    @pytest.mark.parametrize("kind", [1, None, "foo", "X"])
    def test_two_level_kind_is_one_of_two_strings(self, kind):
        with pytest.raises(InvalidArgument, match="kind must be"):
            two_level_phase(kind, TwoLevelParams(1.0, 0.2))


C = StateVector([0.8, 0.6j])
GRID = GridModel(["a", "b", "c"], [1.0, 2.0, 3.0], 1.0, V)

# Each entry point with one integer argument (a sample count M, a level or
# basis index, a series order) replaced by x, and a valid value for it.
INTEGER_ENTRY_POINTS = {
    "StateVector.basis_vector.dim": (lambda x: StateVector.basis_vector(x, 0), 3),
    "StateVector.basis_vector.index": (lambda x: StateVector.basis_vector(3, x), 1),
    "geodesic_null_curve.M": (lambda x: geodesic_null_curve(A, B, M=x), 5),
    "o_null_curve.M": (lambda x: o_null_curve(A, B, M=x), 5),
    "triangle_holonomy.M": (lambda x: triangle_holonomy(A, B, C, M=x), 5),
    "survival_amplitude.i": (lambda x: survival_amplitude(H, V, x, 0.1), 1),
    "survival_amplitude.order": (lambda x: survival_amplitude(H, V, 0, 0.1, order=x), 2),
    "energy_shift": (lambda x: energy_shift(SYSTEM, V, x, 0.1), 1),
    "perturbed_state": (lambda x: perturbed_state(SYSTEM, V, x, 0.1), 1),
    "third_order_phase_terms": (lambda x: third_order_phase_terms(SYSTEM, V, x), 1),
    "lippmann_schwinger_solve": (lambda x: lippmann_schwinger_solve(GRID, x), 1),
    "born_forward_amplitude": (lambda x: born_forward_amplitude(GRID, x), 1),
    "triple_product_phases": (lambda x: triple_product_phases(GRID, x), 1),
    "separable_born_amplitude": (lambda x: separable_born_amplitude(MODEL, 1.0, order=x), 3),
    "ParamCurve.row": (lambda x: CURVE.row(x), 1),
    "ParamCurve.state": (lambda x: CURVE.state(x), 1),
}

BAD_INTEGERS = {"numeric string": "1", "float": 1.5, "whole float": 2.0, "numpy float": np.float64(1.0),
                "bool": True, "numpy bool": np.True_, "none": None}

# The entry points above whose integer indexes a level, a basis vector or a
# grid point of 3.
INDEX_ENTRY_POINTS = ["StateVector.basis_vector.index", "survival_amplitude.i", "energy_shift", "perturbed_state",
                      "third_order_phase_terms", "lippmann_schwinger_solve", "born_forward_amplitude",
                      "triple_product_phases"]

# Each entry point with one real array argument given as a complex array.
REAL_ARRAY_ENTRY_POINTS = {
    "ParamCurve.params": lambda z: ParamCurve(z, [[1.0, 0.0]] * 3),
    "gauge_transform": lambda z: gauge_transform(CURVE, z),
    "reparametrize": lambda z: reparametrize(CURVE, z),
    "EigenSystem.energies": lambda z: EigenSystem(z, None),
    "GridModel.energies": lambda z: GridModel(["a", "b", "c"], z, 1.0, V),
}


@pytest.mark.filterwarnings("error")
class TestIntegerAndRealArguments:
    @pytest.mark.parametrize("bad", BAD_INTEGERS.values(), ids=BAD_INTEGERS.keys())
    @pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
    def test_a_non_integer_is_an_invalid_argument(self, entry, bad):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            INTEGER_ENTRY_POINTS[entry][0](bad)

    @pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
    def test_python_and_numpy_integers_are_accepted(self, entry, kind):
        call, valid = INTEGER_ENTRY_POINTS[entry]
        assert repr(call(kind(valid))) == repr(call(valid))

    @pytest.mark.parametrize("index", [-1, 3, 10**30])
    @pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
    def test_an_index_out_of_range_is_an_invalid_argument(self, entry, index):
        with pytest.raises(InvalidArgument, match="out of range"):
            INTEGER_ENTRY_POINTS[entry][0](index)

    @pytest.mark.parametrize("entry", ["ParamCurve.row", "ParamCurve.state"])
    def test_a_sample_index_counts_from_either_end(self, entry):
        call = INTEGER_ENTRY_POINTS[entry][0]
        for index in (-3, -1, 0, 2):
            assert repr(call(index)) == repr(call(index % 3))
        for index in (-4, 3, 10**6, 10**30):
            with pytest.raises(InvalidArgument, match="out of range"):
                call(index)

    @pytest.mark.parametrize("entry", REAL_ARRAY_ENTRY_POINTS)
    def test_complex_data_for_a_real_array_is_refused(self, entry):
        # numpy's cast would warn and drop the imaginary parts
        for z in (np.array([0.0, 1j, 2.0]), [np.complex128(0.0), 1.0, 2.0], np.array([0.0, 1.0, 2.0], complex)):
            with pytest.raises(InvalidArgument, match="complex entries"):
                REAL_ARRAY_ENTRY_POINTS[entry](z)
