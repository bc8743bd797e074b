"""End-to-end tests of the batch CLI.

Jobs run in-process through main(argv) so exit statuses and report payloads
are asserted directly; one subprocess test checks the installed console
script. Every numeric claim is cross-checked against the library call the
subcommand wraps.
"""

import importlib
import json
import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ggphase as gg
from ggphase.cli import main

X_MATRIX = [[0, 1], [1, 0]]


def invoke(capsys, *argv):
    # Flag-level problems leave main() via argparse's SystemExit; handler
    # problems return the status. Both carry the same exit-code contract.
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def cvec(values) -> list:
    return [{"re": z.real, "im": z.imag} for z in np.asarray(values, dtype=complex)]


def cmat(matrix) -> list:
    return [cvec(row) for row in np.asarray(matrix, dtype=complex)]


def csv_trapezoid(path) -> float:
    """math.fsum of the trapezoid panels over a connection CSV's s, a_o columns."""
    rows = [[float(cell) for cell in line.split(",")] for line in path.read_text().splitlines()[1:]]
    s, a = np.array(rows).T
    return math.fsum((0.5 * (a[1:] + a[:-1]) * np.diff(s)).tolist())


@pytest.fixture
def states_file(tmp_path):
    return write_json(
        tmp_path / "states.json",
        [[1, 0], cvec([0.6, 0.8j]), cvec([0.5, 0.5 + 0.2j])],
    )


@pytest.fixture
def x_file(tmp_path):
    return write_json(tmp_path / "x.json", X_MATRIX)


@pytest.fixture
def h3_file(tmp_path):
    h = np.array(
        [[0.4, 0.2 + 0.5j, 0.1j], [0.2 - 0.5j, -0.3, 0.7], [-0.1j, 0.7, 1.1]]
    )
    return write_json(tmp_path / "h3.json", cmat(h))


class TestTwoLevel:
    def test_swap_phase_matches_closed_form(self, capsys, tmp_path):
        out_csv = tmp_path / "row.csv"
        code, out, _ = invoke(
            capsys,
            "two-level", "--kind", "x",
            "--theta", str(math.pi / 2), "--phi", str(math.pi / 3),
            "--csv", str(out_csv),
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "two-level"
        assert report["results"]["phase"] == pytest.approx(math.pi / 3, abs=1e-15)
        # 17 significant digits round-trip the double exactly.
        assert "1.0471975511965976" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta,phi,phase"
        assert lines[1].split(",")[2] == "1.0471975511965976"

    def test_integral_floats_reparse_as_floats(self, capsys, tmp_path):
        out_csv = tmp_path / "row.csv"
        code, out, _ = invoke(
            capsys, "two-level", "--kind", "x", "--theta", "1", "--phi", "0",
            "--csv", str(out_csv),
        )
        assert code == 0
        results = json.loads(out)["results"]
        for key in ("theta", "phi", "phase"):
            assert type(results[key]) is float
        assert '"theta": 1.0,' in out
        assert out_csv.read_text().splitlines()[1] == "1.0,0.0,0.0"

    def test_pole_is_domain_error(self, capsys):
        code, out, _ = invoke(capsys, "two-level", "--kind", "x", "--theta", "0", "--phi", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "UndefinedPhase"

    def test_hadamard_matches_library(self, capsys):
        code, out, _ = invoke(
            capsys, "two-level", "--kind", "hadamard", "--theta", "2.0", "--phi", "0.5"
        )
        assert code == 0
        expected = gg.two_level_phase("hadamard", gg.TwoLevelParams(2.0, 0.5))
        assert json.loads(out)["results"]["phase"] == expected

    def test_tol_zero_flag_widens_pole(self, capsys):
        argv = ["two-level", "--kind", "x", "--theta", "1e-7", "--phi", "0.3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--tol-zero", "1e-6"]) == 2
        capsys.readouterr()


class TestPhase:
    def test_identical_states_identity(self, capsys, tmp_path):
        states = write_json(tmp_path / "s.json", [[1, 0], [1, 0], [1, 0]])
        code, out, _ = invoke(capsys, "phase", "--states", states, "--identity")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["value"] == 0.0
        assert report["results"]["chain_length"] == 3

    def test_observable_chain_matches_library(self, capsys, states_file, x_file):
        code, out, _ = invoke(
            capsys, "phase", "--states", states_file, "--observable", x_file
        )
        assert code == 0
        states = [
            gg.StateVector([1, 0]),
            gg.StateVector([0.6, 0.8j]),
            gg.StateVector([0.5, 0.5 + 0.2j]),
        ]
        expected = gg.generalized_phase_chain(states, gg.Observable(X_MATRIX))
        report = json.loads(out)
        assert report["results"]["value"] == expected.value
        assert report["results"]["min_link_modulus"] == expected.min_link_modulus

    def test_orthogonal_pair_names_link(self, capsys, tmp_path):
        states = write_json(tmp_path / "s.json", [[1, 0], [1, 0], [0, 1]])
        code, out, _ = invoke(capsys, "phase", "--states", states, "--identity")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "UndefinedPhase"
        assert error["link_index"] == 1
        assert "link" in error["message"]

    def test_error_payload_written_to_output_file(self, capsys, tmp_path):
        states = write_json(tmp_path / "s.json", [[1, 0], [1, 0], [0, 1]])
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "phase", "--states", states, "--identity", "--output", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert json.loads(out_path.read_text())["error"]["link_index"] == 1

    def test_observable_and_identity_conflict(self, capsys, states_file, x_file):
        code, _, err = invoke(
            capsys, "phase", "--states", states_file,
            "--observable", x_file, "--identity",
        )
        assert code == 1
        assert "not allowed with" in err

    def test_missing_observable_choice(self, capsys, states_file):
        code, _, err = invoke(capsys, "phase", "--states", states_file)
        assert code == 1
        assert "required" in err


class TestInputFailures:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "phase", "--states", "/nonexistent.json", "--identity")
        assert code == 1
        assert "nonexistent" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = invoke(capsys, "phase", "--states", str(bad), "--identity")
        assert code == 1

    def test_unknown_flag_exits_one(self, capsys, states_file):
        code, _, err = invoke(capsys, "phase", "--states", states_file, "--nope")
        assert code == 1

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    def test_tol_phase_flag_is_gone(self, capsys, states_file):
        # No subcommand compares phases against a tolerance, so there is no
        # phase-tolerance flag to accept.
        code, _, err = invoke(
            capsys, "phase", "--states", states_file, "--identity", "--tol-phase", "1e-3"
        )
        assert code == 1
        assert "--tol-phase" in err

    def test_negative_tol_flag_exits_one(self, capsys, states_file):
        code, _, err = invoke(
            capsys, "phase", "--states", states_file, "--identity", "--tol-zero", "-1"
        )
        assert code == 1


class TestCurve:
    def test_constant_curve_zero_phase(self, capsys, tmp_path, x_file):
        curve = write_json(
            tmp_path / "curve.json",
            {"params": [0.0, 0.5, 1.0], "states": [[1, 1], [1, 1], [1, 1]]},
        )
        code, out, _ = invoke(capsys, "curve", "--curve", curve, "--observable", x_file)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["value"] == 0.0
        assert report["results"]["sample_count"] == 3
        assert report["diagnostics"]["connection_integral"] == 0.0
        assert report["diagnostics"]["extrapolated_samples"] == []

    def test_connection_csv_columns(self, capsys, tmp_path, x_file):
        s = np.linspace(0.0, 1.0, 51)
        states = [
            [math.cos(0.4 * t), math.sin(0.4 * t)] for t in s
        ]
        curve = write_json(tmp_path / "curve.json", {"params": list(s), "states": states})
        out_csv = tmp_path / "conn.csv"
        code, _, _ = invoke(
            capsys, "curve", "--curve", curve, "--observable", x_file, "--csv", str(out_csv)
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "s,a_o"
        assert len(lines) == 52

    def test_connection_integral_is_fsum_trapezoid_of_csv(self, capsys, tmp_path):
        s = np.cumsum(np.linspace(0.001, 0.003, 1001))
        states = [cvec([math.cos(t), np.exp(0.7j * t * t) * math.sin(t)]) for t in s]
        curve = write_json(tmp_path / "curve.json", {"params": list(s), "states": states})
        out_csv = tmp_path / "conn.csv"
        code, out, _ = invoke(
            capsys, "curve", "--curve", curve, "--identity", "--csv", str(out_csv)
        )
        assert code == 0
        reported = json.loads(out)["diagnostics"]["connection_integral"]
        assert reported == csv_trapezoid(out_csv)

    def test_bad_curve_file_shape(self, capsys, tmp_path, x_file):
        curve = write_json(tmp_path / "curve.json", {"params": [0, 1]})
        code, _, err = invoke(capsys, "curve", "--curve", curve, "--observable", x_file)
        assert code == 1
        assert "params" in err

    def test_ragged_curve_states_named(self, capsys, tmp_path, x_file):
        curve = write_json(
            tmp_path / "curve.json", {"params": [0, 1], "states": [[1, 0], [1, 0, 0]]}
        )
        code, _, err = invoke(capsys, "curve", "--curve", curve, "--observable", x_file)
        assert code == 1
        assert f"{curve}.states: rows have unequal lengths" in err


class TestNullCurve:
    def test_identity_null_curve(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", [1, 0])
        b_vec = [
            complex(math.cos(0.6) * np.exp(0.5j)),
            complex(math.sin(0.6) * np.exp(0.25j)),
        ]
        b = write_json(tmp_path / "b.json", cvec(b_vec))
        code, out, _ = invoke(
            capsys, "null-curve", "--a", a, "--b", b, "--identity", "--samples", "401"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["sample_count"] == 401
        assert results["expected_integral"] == pytest.approx(0.5, abs=1e-12)
        assert abs(results["curve_phase"]) < 1e-5
        assert results["connection_integral"] == pytest.approx(0.5, abs=1e-5)

    def test_connection_integral_is_fsum_trapezoid_of_csv(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", cvec([0.6, 0.8j, 0.0]))
        b = write_json(tmp_path / "b.json", cvec([0.3, 0.4 - 0.5j, 0.2 + 0.6j]))
        positive = np.array([[2.0, 0.3 + 0.2j, 0.0], [0.3 - 0.2j, 1.5, 0.1j], [0.0, -0.1j, 1.0]])
        obs = write_json(tmp_path / "o.json", cmat(positive))
        out_csv = tmp_path / "conn.csv"
        code, out, _ = invoke(
            capsys, "null-curve", "--a", a, "--b", b, "--observable", obs,
            "--samples", "1001", "--tau", "0.7", "--csv", str(out_csv),
        )
        assert code == 0
        reported = json.loads(out)["results"]["connection_integral"]
        assert reported == csv_trapezoid(out_csv)

    def test_zero_tau_is_rejected(self, capsys, tmp_path):
        # tau = 0 is not a usable parameter length and must never fall back
        # to the default tau = 1
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", cvec([0.6, 0.8j]))
        code, out, err = invoke(
            capsys, "null-curve", "--a", a, "--b", b, "--identity", "--tau", "0"
        )
        assert code != 0
        assert "tau must be positive" in out + err

    def test_orthogonal_pair_is_domain_error(self, capsys, tmp_path):
        # The identity-observable null curve needs a nonvanishing endpoint
        # link <b|a>, so an orthogonal pair is a phase-domain failure.
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", [0, 1])
        code, out, _ = invoke(capsys, "null-curve", "--a", a, "--b", b, "--identity")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UndefinedPhase"


class TestCycle:
    def test_matches_library(self, capsys, h3_file):
        code, out, _ = invoke(capsys, "cycle", "--h", h3_file, "--epsilon", "0.01")
        assert code == 0
        h = gg.Observable(
            np.array(
                [[0.4, 0.2 + 0.5j, 0.1j], [0.2 - 0.5j, -0.3, 0.7], [-0.1j, 0.7, 1.1]]
            )
        )
        basis = [gg.StateVector.basis_vector(3, k) for k in range(3)]
        expected = gg.projective_cycle_amplitude(h, basis, 0.01)
        report = json.loads(out)
        assert report["results"]["extracted_phase"] == expected.extracted_phase
        amp = report["results"]["amplitude"]
        assert complex(amp["re"], amp["im"]) == expected.amplitude
        assert report["diagnostics"]["limit_gap"] < 0.2

    def test_two_dim_h_needs_explicit_basis(self, capsys, tmp_path, x_file):
        code, _, err = invoke(capsys, "cycle", "--h", x_file, "--epsilon", "0.01")
        assert code == 1
        assert "--basis" in err


class TestPerturb:
    def test_matches_library(self, capsys, tmp_path):
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.1, 2.3])
        v_mat = np.array(
            [[0.2, 0.1 + 0.3j, 0.0], [0.1 - 0.3j, -0.4, 0.2j], [0.0, -0.2j, 0.5]]
        )
        v = write_json(tmp_path / "v.json", cmat(v_mat))
        code, out, _ = invoke(
            capsys, "perturb", "--h0", h0, "--v", v, "--level", "0", "--lambda", "0.1"
        )
        assert code == 0
        system = gg.EigenSystem.standard([0.0, 1.1, 2.3])
        shift = gg.energy_shift(system, gg.Observable(v_mat), 0, 0.1)
        table = gg.third_order_phase_terms(system, gg.Observable(v_mat), 0)
        report = json.loads(out)
        assert report["results"]["shift"]["total"] == shift.total
        assert report["results"]["shift"]["order2"] == shift.order2
        rows = report["results"]["phase_terms"]
        assert len(rows) == len(table)
        assert rows[0]["gamma_v"] == table.gamma_v[0]

    def test_bad_level_is_domain_error(self, capsys, tmp_path):
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.0])
        v = write_json(tmp_path / "v.json", [[0.1, 0.0], [0.0, 0.2]])
        code, out, _ = invoke(
            capsys, "perturb", "--h0", h0, "--v", v, "--level", "5", "--lambda", "0.1"
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"


class TestScatter:
    @pytest.fixture
    def grid_file(self, tmp_path):
        rng = np.random.default_rng(77)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = (m + m.conj().T) / 2
        self.v_matrix = v
        return write_json(
            tmp_path / "grid.json",
            {
                "momenta": [
                    {"label": f"k{j}", "energy": e}
                    for j, e in enumerate([0.5, 1.2, 2.0, 3.1])
                ],
                "mass": 1.0,
                "epsilon": 0.8,
                "V": cmat(v),
            },
        )

    def grid_model(self):
        return gg.GridModel(
            [f"k{j}" for j in range(4)],
            [0.5, 1.2, 2.0, 3.1],
            1.0,
            gg.Observable(self.v_matrix),
            0.8,
        )

    def test_grid_by_label(self, capsys, grid_file, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, _ = invoke(
            capsys, "scatter", "grid", "--model", grid_file,
            "--incoming", "k1", "--csv", str(out_csv),
        )
        assert code == 0
        report = json.loads(out)
        expected = gg.born_forward_amplitude(self.grid_model(), 1)
        total = report["results"]["born"]["total"]
        assert complex(total["re"], total["im"]) == expected.total
        assert report["results"]["incoming"] == "k1"
        assert report["diagnostics"]["spectral_radius"] == expected.spectral_radius
        assert report["diagnostics"]["solve_defect"] < 1e-12
        assert report["diagnostics"]["born_series_converges"] in (True, False)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "p,q,modulus,gamma_v,denominator_re,denominator_im"
        assert len(lines) == 1 + len(gg.triple_product_phases(self.grid_model(), 1))

    def test_grid_by_index(self, capsys, grid_file):
        code, out, _ = invoke(
            capsys, "scatter", "grid", "--model", grid_file, "--incoming", "2"
        )
        assert code == 0
        assert json.loads(out)["results"]["incoming"] == "k2"

    @pytest.mark.parametrize(
        ("field", "where", "value"),
        [
            ("energy", "momenta[1].energy", "1.2"),
            ("mass", "mass", True),
            ("epsilon", "epsilon", None),
        ],
    )
    def test_grid_non_number_names_field(self, capsys, grid_file, field, where, value):
        model = json.loads(pathlib.Path(grid_file).read_text())
        if field == "energy":
            model["momenta"][1]["energy"] = value
        else:
            model[field] = value
        pathlib.Path(grid_file).write_text(json.dumps(model))
        code, out, err = invoke(
            capsys, "scatter", "grid", "--model", grid_file, "--incoming", "k0"
        )
        assert code == 1
        assert out == ""
        assert f"{grid_file}.{where}: expected a real number" in err

    def test_grid_unknown_incoming(self, capsys, grid_file):
        code, _, err = invoke(
            capsys, "scatter", "grid", "--model", grid_file, "--incoming", "zzz"
        )
        assert code == 1
        assert "incoming" in err

    def test_separable_matches_library(self, capsys):
        code, out, _ = invoke(
            capsys, "scatter", "separable", "--coupling", "-0.1",
            "--beta", "1.0", "--mass", "1.0", "--k", "0.5",
        )
        assert code == 0
        model = gg.SeparableModel(coupling=-0.1, beta=1.0, mass=1.0)
        exact = gg.separable_tmatrix(model, 0.5)
        results = json.loads(out)["results"]
        assert complex(results["amplitude"]["re"], results["amplitude"]["im"]) == exact
        assert results["optical_residual"] < 1e-14
        assert results["born_order"] == 2
        assert results["born_error"] == abs(
            exact - gg.separable_born_amplitude(model, 0.5, 2)
        )

    def test_separable_bad_momentum(self, capsys):
        code, out, _ = invoke(
            capsys, "scatter", "separable", "--coupling", "-0.1",
            "--beta", "1.0", "--mass", "1.0", "--k", "-2.0",
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("order", [100, 150, 300])
    def test_separable_born_overflow_exits_2(self, capsys, order):
        # Order 100 overflows the optical residual, 150 and 300 the Born
        # amplitude itself.
        code, out, err = invoke(
            capsys, "scatter", "separable", "--coupling", "10",
            "--beta", "1", "--mass", "1", "--k", "0.5", "--born-order", str(order),
        )
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert f"order-{order}" in error["message"]
        assert "coupling 10.0" in error["message"]
        assert "Traceback" not in err

    def test_separable_unconverged_quadrature_exits_2(self, capsys):
        code, out, err = invoke(
            capsys, "scatter", "separable", "--coupling", "0.1",
            "--beta", "1.0", "--mass", "1.0", "--k", "1e300",
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "QuadratureNotConverged"
        assert "Traceback" not in err


class TestSweep:
    def test_epsilon_ladder(self, capsys, tmp_path, h3_file):
        template = write_json(
            tmp_path / "job.json", {"command": "cycle", "h": h3_file, "epsilon": 0.01}
        )
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "sweep", "--template", template, "--param", "epsilon",
            "--values", "1e-2", "5e-3", "2.5e-3", "--csv", str(out_csv),
        )
        assert code == 0
        report = json.loads(out)
        rows = report["results"]["rows"]
        assert [r["value"] for r in rows] == [1e-2, 5e-3, 2.5e-3]
        # Extraction error vs the epsilon -> 0 limit shrinks monotonically.
        h = np.array(
            [[0.4, 0.2 + 0.5j, 0.1j], [0.2 - 0.5j, -0.3, 0.7], [-0.1j, 0.7, 1.1]]
        )
        limit = np.angle(h[0, 2] * h[2, 1] * h[1, 0])
        gaps = [
            abs(gg.wrapped_distance(r["results"]["extracted_phase"], limit))
            for r in rows
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "epsilon,amplitude_re,amplitude_im,extracted_phase"
        assert len(lines) == 4

    def test_nested_sweep_rejected(self, capsys, tmp_path):
        template = write_json(tmp_path / "job.json", {"command": "sweep"})
        code, _, err = invoke(
            capsys, "sweep", "--template", template, "--param", "x", "--values", "1"
        )
        assert code == 1
        assert "nest" in err

    def test_template_without_command(self, capsys, tmp_path):
        template = write_json(tmp_path / "job.json", {"epsilon": 0.1})
        code, _, err = invoke(
            capsys, "sweep", "--template", template, "--param", "x", "--values", "1"
        )
        assert code == 1


class TestDeterminism:
    def test_reports_byte_stable_modulo_wall_time(self, tmp_path, states_file, x_file):
        def run_once(path):
            code = main(
                ["phase", "--states", states_file, "--observable", x_file,
                 "--output", str(path)]
            )
            assert code == 0
            payload = json.loads(path.read_text())
            assert isinstance(payload.pop("wall_time_s"), float)
            assert set(payload) == {"command", "args", "results", "diagnostics"}
            return payload

        assert run_once(tmp_path / "r1.json") == run_once(tmp_path / "r2.json")

    def test_csv_byte_identical(self, tmp_path, states_file, x_file):
        def run_once(path):
            assert main(
                ["phase", "--states", states_file, "--observable", x_file,
                 "--csv", str(path), "--output", str(path) + ".json"]
            ) == 0
            return path.read_text()

        assert run_once(tmp_path / "a.csv") == run_once(tmp_path / "b.csv")

    def test_json_round_trip(self, capsys, states_file, x_file):
        code, out, _ = invoke(
            capsys, "phase", "--states", states_file, "--observable", x_file
        )
        assert code == 0
        report = json.loads(out)
        states = [
            gg.StateVector([1, 0]),
            gg.StateVector([0.6, 0.8j]),
            gg.StateVector([0.5, 0.5 + 0.2j]),
        ]
        exact = gg.generalized_phase_chain(states, gg.Observable(X_MATRIX)).value
        # Parsing the emitted text reproduces the double bit for bit.
        assert report["results"]["value"] == exact


class TestEmission:
    """Reports and error payloads leave by one path, to stdout or --output."""

    @pytest.mark.parametrize(
        ("chain", "status"),
        [
            ([[1, 0], [0.6, {"re": 0, "im": 0.8}], [0.5, {"re": 0.5, "im": 0.2}]], 0),
            # Link amplitudes of 1e400 overflow: the report cannot carry them.
            ([[1e200, 0], [1e200, 0], [1e200, 0]], 2),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stdout_and_output_give_the_same_bytes(self, capsys, tmp_path, chain, status):
        argv = ["phase", "--states", write_json(tmp_path / "s.json", chain), "--identity"]
        code, out, err = invoke(capsys, *argv)
        assert code == status
        assert "Traceback" not in err
        path = tmp_path / "report.json"
        code, printed, err = invoke(capsys, *argv, "--output", str(path))
        assert code == status
        assert (printed, err) == ("", "")
        written = path.read_text(encoding="utf-8")

        def without_wall_time(text):
            return [line for line in text.splitlines() if '"wall_time_s"' not in line]

        assert without_wall_time(out) == without_wall_time(written)
        assert ("error" in json.loads(written)) == (status == 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_report_is_exit_2_on_both_destinations(self, capsys, tmp_path):
        # Third-order terms of V entries of 1e200 overflow to inf, which a
        # report cannot carry.
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.0])
        v = write_json(tmp_path / "v.json", [[1e200, 1e200], [1e200, 1e200]])
        argv = ["perturb", "--h0", h0, "--v", v, "--level", "0", "--lambda", "1e-300"]
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        path = tmp_path / "report.json"
        code, printed, err = invoke(capsys, *argv, "--output", str(path))
        assert code == 2
        assert printed == ""
        assert "Traceback" not in err
        written = path.read_text(encoding="utf-8")
        assert written == out
        error = json.loads(written)["error"]
        assert error["type"] == "ValueError"
        assert "finite" in error["message"]


class TestConsoleScript:
    def test_installed_entry_point(self):
        # The [project.scripts] target must resolve without an install; the
        # real console script is run as well whenever one is on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["ggphase"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        script = shutil.which("ggphase")
        if script is None:
            return
        proc = subprocess.run(
            [script, "two-level", "--kind", "x", "--theta", "1.0", "--phi", "0.25"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["phase"] == pytest.approx(0.25)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ggphase.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "phase" in proc.stdout and "scatter" in proc.stdout
