"""End-to-end tests of the batch CLI.

Jobs run in-process through main(argv) so exit statuses and report payloads
are asserted directly; one subprocess test checks the installed console
script. Every numeric claim is cross-checked against the library call the
subcommand wraps.
"""

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ggphase as gg
from conftest import (
    assert_near_reference,
    assert_separable_report_near_reference,
    located_vector_oracle,
    outputs_under_both_dispatches,
    random_hermitian,
    random_positive_definite,
    random_state,
    rng_for,
    separable_exact_is_a_double,
    separable_reference,
)
from ggphase import _io
from ggphase._io import InputError
from ggphase.cli import _build_parser, _finite_float, _tolerance, main

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


def assert_phase_terms_are_the_csv(report_text: str, csv_path) -> None:
    """Every phase_terms cell of the JSON report is the same string as its
    CSV cell; a {"re", "im"} cell is the <name>_re and <name>_im columns."""
    rows = json.loads(report_text, parse_float=str, parse_int=str)["results"]["phase_terms"]
    header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(rows) == len(lines) > 0
    for row, line in zip(rows, lines):
        cells = {}
        for name, cell in row.items():
            if isinstance(cell, dict):
                cells.update({f"{name}_{part}": text for part, text in cell.items()})
            else:
                cells[name] = cell
        assert ",".join(cells) == header
        assert ",".join(cells.values()) == line


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


# A states file with one thing wrong, each read by the one-pass reader first.
MALFORMED_STATES = [
    [[1, 0], [1, True], [0, 1]],
    [[1, 0], [1, "1"], [0, 1]],
    [[1, 0], [1, {"re": 1, "im": 0, "x": 0}], [0, 1]],
    [[1, 0], [1, {"re": 1}], [0, 1]],
    [[1, 0], [], [0, 1]],
    [[1, 0], [1, [0, 1]], [0, 1]],
    [[1, 0], [1, 10**400], [0, 1]],
    [[1, 0], [1, None], [0, 1]],
    [[1, 0], [1, {"re": 1, "im": False}], [0, 1]],
    [[1, 0], {"re": 1, "im": 0}, [0, 1]],
]


class TestStateFiles:
    """A states file is read as a matrix file is: in one pass when well
    formed, else row by row, so its errors are those of the located parsers."""

    @pytest.mark.parametrize("data", MALFORMED_STATES)
    def test_malformed_state_is_named(self, capsys, tmp_path, data):
        states = write_json(tmp_path / "F.json", data)
        with pytest.raises(InputError) as want:
            for i, row in enumerate(data):
                located_vector_oracle(row, f"{states}[{i}]")
        code, out, err = invoke(capsys, "phase", "--states", states, "--identity")
        assert code == 1
        assert out == ""
        assert err == f"ggphase: error: {want.value}\n"

    def test_the_file_is_parsed_before_a_state_is_built(self, capsys, tmp_path):
        # A malformed row after a vanishing one is the reported error: the
        # whole file parses before the first state is built.
        states = write_json(tmp_path / "F.json", [[1, 0], [0, 0], [1, True]])
        code, _, err = invoke(capsys, "phase", "--states", states, "--identity")
        assert code == 1
        assert err == f"ggphase: error: {states}[2][1]: expected a number, got a boolean\n"

    def test_ragged_states_are_an_invocation_error(self, capsys, tmp_path):
        states = write_json(tmp_path / "F.json", [[1, 0], [1, 0, 0], [0, 1]])
        code, out, err = invoke(capsys, "phase", "--states", states, "--identity")
        assert (code, out) == (1, "")
        assert err == f"ggphase: error: {states}: rows have unequal lengths\n"

    @pytest.mark.parametrize("command", ["phase", "null-curve", "cycle"])
    def test_tol_zero_reaches_state_files(self, capsys, tmp_path, h3_file, command):
        # a state of norm^2 5e-7 vanishes under --tol-zero 1e-3, as a curve
        # file's state does, and the file that holds it is named
        row = cvec([5e-4, 5e-4j, 0.0])
        small = write_json(tmp_path / "small.json", row)
        rows = write_json(tmp_path / "rows.json", [[1, 0, 0], row, [0, 0, 1]])
        argv, named = {
            "phase": (["--states", rows, "--identity"], rows),
            "null-curve": (["--a", write_json(tmp_path / "a.json", [1, 0, 0]), "--b", small, "--identity"], small),
            "cycle": (["--h", h3_file, "--epsilon", "0.01", "--basis", rows], rows),
        }[command]
        code, out, err = invoke(capsys, command, *argv, "--tol-zero", "1e-3")
        assert (code, out) == (1, "")
        assert err == f"ggphase: error: {named}: state vector has vanishing norm\n"

    def test_one_pass_states_match_the_row_parser(self, capsys, tmp_path):
        rng = rng_for(12)
        z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        data = cvec(z.ravel())
        data = [data[3 * i : 3 * i + 3] for i in range(6)]
        data[2][1] = -2  # bare numbers mix with {re, im} objects
        states = write_json(tmp_path / "F.json", data)
        code, out, _ = invoke(capsys, "phase", "--states", states, "--identity")
        assert code == 0
        rows = [gg.StateVector(located_vector_oracle(row, "x")) for row in data]
        assert json.loads(out)["results"]["value"] == gg.generalized_phase_chain(rows).value


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


# Each float flag with the other arguments its subcommand needs. The flag is
# refused before any file is opened, so the file names need not exist.
FLOAT_FLAGS = [
    (["two-level", "--kind", "x", "--phi", "0"], "--theta"),
    (["two-level", "--kind", "x", "--theta", "1"], "--phi"),
    (["cycle", "--h", "h.json"], "--epsilon"),
    (["null-curve", "--a", "a.json", "--b", "b.json", "--identity"], "--tau"),
    (["perturb", "--h0", "h0.json", "--v", "v.json", "--level", "0"], "--lambda"),
    (["scatter", "separable", "--coupling", "1", "--mass", "1", "--k", "1"], "--beta"),
    (["scatter", "separable", "--beta", "1", "--mass", "1", "--k", "1"], "--coupling"),
    (["scatter", "separable", "--beta", "1", "--coupling", "1", "--k", "1"], "--mass"),
    (["scatter", "separable", "--beta", "1", "--coupling", "1", "--mass", "1"], "--k"),
    (["phase", "--states", "s.json", "--identity"], "--tol-zero"),
]


def all_actions(parser):
    """Every action of the parser and, recursively, of its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from all_actions(sub)
        else:
            yield action


def float_typed_flags(parser) -> set:
    """The option strings of every flag, in every subcommand, that parses a float."""
    return {
        flag
        for action in all_actions(parser)
        if action.type in (float, _finite_float, _tolerance)
        for flag in action.option_strings
    }


class TestNonFiniteFlags:
    """nan and inf cannot appear in a report, not even in its echo of the
    arguments, so they are refused with the flags (exit 1)."""

    def test_every_float_flag_is_covered(self):
        assert float_typed_flags(_build_parser()) == {flag for _, flag in FLOAT_FLAGS}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(("argv", "flag"), FLOAT_FLAGS, ids=[flag for _, flag in FLOAT_FLAGS])
    def test_flag_rejected(self, capsys, argv, flag, value):
        code, out, err = invoke(capsys, *argv, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert f"argument {flag}: expected a finite number, got {value!r}" in err

    @pytest.mark.parametrize("values", [["1", "nan"], ["inf"], ["2", "Infinity"], ["1e999"]])
    def test_sweep_value_rejected(self, capsys, tmp_path, values):
        template = write_json(tmp_path / "job.json", {"command": "two-level", "kind": "x", "phi": 0.0})
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", "theta", "--values", *values
        )
        assert code == 1
        assert out == ""
        assert "argument --values: expected a finite number" in err


# Negative numbers written with an exponent or without a leading digit.
NEGATIVE_NUMBERS = [("-1e-3", -1e-3), ("-2.5E+4", -2.5e4), ("-.5e1", -5.0)]


class TestNegativeFlagValues:
    """argparse takes "-1e-3" for an option string unless the parser knows
    it for a number; every float flag and --values must accept it."""

    @pytest.mark.parametrize(("text", "number"), NEGATIVE_NUMBERS)
    @pytest.mark.parametrize(("argv", "flag"), FLOAT_FLAGS, ids=[flag for _, flag in FLOAT_FLAGS])
    def test_flag_parses_negative_exponent(self, argv, flag, text, number):
        parser = _build_parser()
        if flag == "--tol-zero":
            # a negative tolerance is refused, but as a value, not as an option
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, flag, text])
            assert exc.value.code == 1
            return
        action = next(a for a in all_actions(parser) if flag in a.option_strings)
        assert getattr(parser.parse_args([*argv, flag, text]), action.dest) == number

    @pytest.mark.parametrize(("text", "number"), NEGATIVE_NUMBERS)
    def test_tol_zero_refuses_negative_as_a_value(self, capsys, states_file, text, number):
        code, out, err = invoke(capsys, "phase", "--states", states_file, "--identity", "--tol-zero", text)
        assert code == 1
        assert out == ""
        assert "argument --tol-zero: tol_zero must be positive" in err

    def test_two_level_phi(self, capsys):
        code, out, _ = invoke(capsys, "two-level", "--kind", "x", "--theta", "1", "--phi", "-1e-3")
        assert code == 0
        assert json.loads(out)["results"]["phi"] == -1e-3

    def test_sweep_values_parse(self):
        args = _build_parser().parse_args(
            ["sweep", "--template", "t.json", "--param", "phi", "--values", "0.1", "-1e-3", "-2.5E+4", "-.5e1"]
        )
        assert args.values == [0.1, -1e-3, -2.5e4, -5.0]

    def test_sweep_values(self, capsys, tmp_path):
        template = write_json(tmp_path / "job.json", {"command": "two-level", "kind": "x", "theta": 1.0})
        code, out, _ = invoke(
            capsys, "sweep", "--template", template, "--param", "phi", "--values", "0.1", "-1e-3", "-.5e-1"
        )
        assert code == 0
        assert [r["value"] for r in json.loads(out)["results"]["rows"]] == [0.1, -1e-3, -0.05]

    def test_negative_infinity_is_a_value_not_an_option(self, capsys, tmp_path):
        template = write_json(tmp_path / "job.json", {"command": "two-level", "kind": "x", "theta": 1.0})
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", "phi", "--values", "0.1", "-inf"
        )
        assert code == 1
        assert "argument --values: expected a finite number, got '-inf'" in err

    def test_option_like_words_stay_options(self, capsys):
        code, _, err = invoke(capsys, "two-level", "--kind", "x", "--theta", "1", "--phi", "-e3")
        assert code == 1
        assert "expected one argument" in err


class TestHugeAndNonFiniteInputs:
    """A JSON integer beyond the double range, or a template value that is not
    a finite number, is an input problem: exit 1 with the place named."""

    def test_state_entry_too_large_for_a_double(self, capsys, tmp_path):
        states = write_json(tmp_path / "F.json", [[1, 0], [1, 10**400], [1, 1]])
        code, out, err = invoke(capsys, "phase", "--states", states, "--identity")
        assert code == 1
        assert out == ""
        assert f"{states}[1][1]: integer too large for a double" in err
        assert "Traceback" not in err

    def test_observable_entry_too_large_for_a_double(self, capsys, tmp_path, states_file):
        obs = write_json(tmp_path / "o.json", [[1, {"re": 0, "im": -(10**400)}], [0, 1]])
        code, _, err = invoke(capsys, "phase", "--states", states_file, "--observable", obs)
        assert code == 1
        assert f"{obs}[0][1].im: integer too large for a double" in err

    def test_json_integer_beyond_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "F.json"
        path.write_text("[[1" + "0" * 5000 + ", 0], [1, 0], [1, 1]]", encoding="utf-8")
        code, out, err = invoke(capsys, "phase", "--states", str(path), "--identity")
        assert code == 1
        assert out == ""
        assert "is not valid JSON" in err

    def test_template_value_too_large_for_a_double(self, capsys, tmp_path):
        template = write_json(
            tmp_path / "job.json", {"command": "two-level", "kind": "x", "theta": 10**400}
        )
        code, out, err = invoke(capsys, "sweep", "--template", template, "--param", "phi", "--values", "0.1")
        assert code == 1
        assert out == ""
        assert "argument --theta: expected a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["1e400", "-1e400", '"nan"', '"inf"', "NaN", "Infinity"])
    def test_template_value_not_finite(self, capsys, tmp_path, text):
        template = tmp_path / "job.json"
        template.write_text(
            '{"command": "two-level", "kind": "x", "phi": 0.0, "theta": %s}' % text, encoding="utf-8"
        )
        code, out, err = invoke(
            capsys, "sweep", "--template", str(template), "--param", "phi", "--values", "0.1"
        )
        assert code == 1
        assert out == ""
        assert "argument --theta: expected a finite number" in err


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

    def test_links_past_the_doubles_keep_the_phase(self, capsys, tmp_path):
        # at 1e306 the stencil terms a <psi_l|O|psi_{l-1}> and
        # c <psi_l|O|psi_{l+1}> pass the doubles, but each link over its own
        # row's <psi|O|psi> does not
        s = np.linspace(0.0, 1.0, 2001)
        states = np.stack([np.ones_like(s), 0.3 * np.exp(2j * s), 0.2 * s * np.exp(-1j * s)], axis=1)
        curve = write_json(tmp_path / "curve.json", {"params": s.tolist(), "states": [cvec(r) for r in states]})
        obs = write_json(tmp_path / "o.json", (1e306 * np.diag([1.0, -1.0, 1.0])).tolist())
        code, out, _ = invoke(capsys, "curve", "--curve", curve, "--observable", obs)
        assert code == 0
        want = gg.curve_phase(gg.ParamCurve(s, states), gg.Observable(np.diag([1.0, -1.0, 1.0])))
        assert json.loads(out)["results"]["value"] == pytest.approx(want.value, rel=1e-12)

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


# The report without its wall_time_s, then the CSV, of a 20001-sample
# null-curve job on each input directory under root.
NULL_CURVE_OUTPUTS = """
import json, pathlib
from ggphase.cli import main
for job in sorted(pathlib.Path({root!r}).iterdir()):
    report, table = job / "report.json", job / "table.csv"
    argv = ["null-curve", "--a", str(job / "a.json"), "--b", str(job / "b.json"), "--observable",
            str(job / "o.json"), "--samples", "20001", "--output", str(report), "--csv", str(table)]
    assert main(argv) == 0
    payload = json.loads(report.read_text())
    del payload["wall_time_s"]
    print(json.dumps(payload))
    print(table.read_text())
"""


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

    @pytest.mark.parametrize("count", [3, 401, 20001])
    def test_report_matches_the_library_null_curve(self, capsys, tmp_path, count):
        # the job samples the closed form; the library's o_null_curve holds
        # the dense states and runs the kernel on them
        for seed in range(4):
            rng = rng_for(2300 + seed)
            dim = int(rng.integers(2, 6))
            a, b = random_state(rng, dim), random_state(rng, dim)
            tau = float(rng.uniform(0.5, 2.0))
            argv = ["null-curve", "--a", write_json(tmp_path / "a.json", cvec(a.components)),
                    "--b", write_json(tmp_path / "b.json", cvec(b.components)),
                    "--samples", str(count), "--tau", repr(tau)]
            for obs in (None, random_positive_definite(rng, dim)):
                flag = ["--identity"] if obs is None else [
                    "--observable", write_json(tmp_path / "o.json", cmat(obs.entries))]
                code, out, _ = invoke(capsys, *argv, *flag)
                assert code == 0
                payload = json.loads(out)
                results, diagnostics = payload["results"], payload["diagnostics"]
                curve = gg.o_null_curve(a, b, obs, tau=tau, M=count)
                samples = gg.connection_samples(curve, obs)
                want = gg.curve_phase(curve, obs, samples=samples)
                assert gg.wrapped_distance(results["curve_phase"], want.value) <= 1e-12
                assert results["connection_integral"] == pytest.approx(samples.integral, rel=1e-12, abs=0.0)
                assert diagnostics["min_link_modulus"] == pytest.approx(want.min_link_modulus, rel=1e-12, abs=0.0)
                assert diagnostics["extrapolated_samples"] == list(samples.extrapolated)

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

    @pytest.mark.parametrize("tau", ["0", "-1"])
    def test_non_positive_tau_is_an_invocation_error(self, capsys, tmp_path, tau):
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", cvec([0.6, 0.8j]))
        code, out, err = invoke(capsys, "null-curve", "--a", a, "--b", b, "--identity", "--tau", tau)
        assert (code, out) == (1, "")
        assert "tau must be positive" in err
        template = write_json(
            tmp_path / "job.json", {"command": "null-curve", "a": a, "b": b, "identity": True}
        )
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", "tau", "--values", "0.5", tau
        )
        assert (code, out) == (1, "")
        assert "tau must be positive" in err

    @pytest.mark.parametrize("tau", ["1e200", "1e-200"])
    def test_connection_integral_is_independent_of_tau(self, capsys, tmp_path, tau):
        # steps of 2.5e199 or 2.5e-201 must neither overflow nor underflow
        # the stencil weights
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", cvec([0.6j, 0.8]))
        argv = ["null-curve", "--a", a, "--b", b, "--identity", "--samples", "5"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        want = json.loads(out)["results"]["connection_integral"]
        code, out, _ = invoke(capsys, *argv, "--tau", tau)
        assert code == 0
        assert json.loads(out)["results"]["connection_integral"] == pytest.approx(want, rel=1e-12)

    # Only counts refused before anything is allocated: a count of about 1e8
    # to 1e12 would really try to allocate gigabytes.
    @pytest.mark.parametrize(
        ("count", "message"),
        [
            ("2", "must be at least 3, got 2"),
            ("0", "must be at least 3, got 0"),
            ("-5", "must be at least 3, got -5"),
            (str(10**20), f"is too large for one array, got {10**20}"),
        ],
    )
    def test_unusable_sample_count_is_an_invocation_error(self, capsys, tmp_path, count, message):
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", cvec([0.6, 0.8j]))
        code, out, err = invoke(
            capsys, "null-curve", "--a", a, "--b", b, "--identity", "--samples", count
        )
        assert code == 1
        assert out == ""
        assert err == f"ggphase: error: argument 'samples' {message}\n"
        template = write_json(
            tmp_path / "job.json", {"command": "null-curve", "a": a, "b": b, "identity": True}
        )
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", "samples", "--values", "5", count
        )
        assert code == 1
        assert err == f"ggphase: error: argument 'samples' {message}\n"

    def test_count_beyond_the_memory_is_an_invocation_error(self, tmp_path):
        # 10**12 samples pass the one-array guard, but their parameter grid
        # alone needs 8 TB. The process's address space is capped at 1 GiB,
        # so the test never asks for real memory.
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", cvec([0.6, 0.8j]))
        template = write_json(
            tmp_path / "job.json", {"command": "null-curve", "a": a, "b": b, "identity": True}
        )
        count = str(10**12)
        message = f"ggphase: error: argument 'samples' is too large for the memory available, got {count}\n"
        for argv in (["null-curve", "--a", a, "--b", b, "--identity", "--samples", count],
                     ["sweep", "--template", template, "--param", "samples", "--values", "5", count]):
            proc = run_module(*argv, memory_cap=2**30)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)

    def test_orthogonal_pair_is_domain_error(self, capsys, tmp_path):
        # The identity-observable null curve needs a nonvanishing endpoint
        # link <b|a>, so an orthogonal pair is a phase-domain failure.
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", [0, 1])
        code, out, _ = invoke(capsys, "null-curve", "--a", a, "--b", b, "--identity")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UndefinedPhase"

    def test_connection_past_the_stencil_terms_is_a_double(self, capsys, tmp_path):
        # at 1e306 the stencil terms a <n_l|O|n_{l-1}> and c <n_l|O|n_{l+1}>
        # pass the doubles, but each link over its own row's <n|O|n> does
        # not; theta = 0, and the segment's own links make its connection 0.0
        a = write_json(tmp_path / "a.json", [1, 0, 0.1])
        b = write_json(tmp_path / "b.json", [1, 0.1, 0])
        obs = write_json(tmp_path / "o.json", (1e306 * np.diag([1.0, -1.0, 1.0])).tolist())
        code, out, _ = invoke(capsys, "null-curve", "--a", a, "--b", b, "--observable", obs, "--samples", "2001")
        assert code == 0
        assert json.loads(out)["results"]["connection_integral"] == 0.0

    def test_output_does_not_depend_on_simd_dispatch(self, tmp_path):
        rng = rng_for(5)
        for j in range(6):
            job = tmp_path / f"job{j}"
            job.mkdir()
            write_json(job / "a.json", cvec(random_state(rng, 16).components))
            write_json(job / "b.json", cvec(random_state(rng, 16).components))
            write_json(job / "o.json", cmat(random_positive_definite(rng, 16).entries))
        default, reduced = outputs_under_both_dispatches(NULL_CURVE_OUTPUTS.format(root=str(tmp_path)))
        assert default.count("connection_integral") == 6
        assert default == reduced


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

    def test_limit_gap_is_linear_in_epsilon_down_to_1e_10(self, capsys, h3_file):
        # the gap to the limit phase is O(epsilon); digits lost as 1/epsilon
        # in the links would swamp it at small epsilon
        slopes = []
        for eps in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10):
            code, out, _ = invoke(capsys, "cycle", "--h", h3_file, "--epsilon", repr(eps))
            assert code == 0
            slopes.append(json.loads(out)["diagnostics"]["limit_gap"] / eps)
        assert max(slopes) <= 1.01 * min(slopes)

    def test_h_links_past_the_doubles_in_product(self, capsys, tmp_path):
        # each H link is about 1e110: their product leaves the doubles, the
        # limit phase does not
        m = 1e110 * np.array([[0.5, 1 + 1j, 2], [1 - 1j, -0.5, 1.5j], [2, -1.5j, 0]])
        h = write_json(tmp_path / "h.json", cmat(m))
        code, out, _ = invoke(capsys, "cycle", "--h", h, "--epsilon", "0.01")
        assert code == 0
        assert json.loads(out)["diagnostics"]["limit_phase"] == -2.356194490192345

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
        system = gg.EigenSystem([0.0, 1.1, 2.3])
        shift = gg.energy_shift(system, gg.Observable(v_mat), 0, 0.1)
        table = gg.third_order_phase_terms(system, gg.Observable(v_mat), 0)
        report = json.loads(out)
        assert report["results"]["shift"]["total"] == shift.total
        assert report["results"]["shift"]["order2"] == shift.order2
        rows = report["results"]["phase_terms"]
        assert len(rows) == len(table)
        assert rows[0]["gamma_v"] == table.gamma_v[0]

    def test_phase_terms_cells_are_the_csv_cells(self, capsys, tmp_path):
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.0, 1.5, 3.0])
        v_mat = random_hermitian(rng_for(5), 4).entries
        v = write_json(tmp_path / "v.json", cmat(v_mat))
        out_csv = tmp_path / "terms.csv"
        code, out, _ = invoke(
            capsys, "perturb", "--h0", h0, "--v", v, "--level", "1", "--lambda", "0.1",
            "--csv", str(out_csv),
        )
        assert code == 0
        assert_phase_terms_are_the_csv(out, out_csv)

    def test_bad_level_is_an_invocation_error(self, capsys, tmp_path):
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.0])
        v = write_json(tmp_path / "v.json", [[0.1, 0.0], [0.0, 0.2]])
        code, out, err = invoke(
            capsys, "perturb", "--h0", h0, "--v", v, "--level", "5", "--lambda", "0.1"
        )
        assert (code, out) == (1, "")
        assert err == "ggphase: error: level 5 out of range for 2 levels\n"


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

    def test_grid_job_runs_one_svd_and_one_solve(self, capsys, grid_file, monkeypatch):
        # The solve carries its condition number and defect, so a grid job
        # takes one SVD and one LU factorisation of (1 - G0 V), and reports
        # the condition number that kernel_condition_number gives.
        calls = {"cond": 0, "solve": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code, out, _ = invoke(capsys, "scatter", "grid", "--model", grid_file, "--incoming", "k2")
        assert code == 0
        assert calls == {"cond": 1, "solve": 1}
        monkeypatch.undo()
        condition = json.loads(out)["diagnostics"]["condition_number"]
        assert condition == gg.kernel_condition_number(self.grid_model(), 2)

    def test_phase_terms_cells_are_the_csv_cells(self, capsys, grid_file, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, _ = invoke(
            capsys, "scatter", "grid", "--model", grid_file, "--incoming", "k2",
            "--csv", str(out_csv),
        )
        assert code == 0
        assert_phase_terms_are_the_csv(out, out_csv)

    def test_sweep_over_mode_has_no_table(self, capsys, grid_file, tmp_path):
        # Each row is a command line of one mode, so a template that holds
        # flags of both modes is refused like that command line.
        template = write_json(tmp_path / "job.json", {
            "command": "scatter", "model": grid_file, "incoming": "k1",
            "beta": 1.0, "coupling": -0.5, "mass": 1.0, "k": 1.0,
        })
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", "mode",
            "--values", "grid", "separable",
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --beta=1.0" in err

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

    @pytest.mark.parametrize("label", [None, [1]], ids=["null", "array"])
    def test_grid_label_must_be_a_string(self, capsys, grid_file, label):
        # str() would make null the label "None" and [1] the label "[1]"
        model = json.loads(pathlib.Path(grid_file).read_text())
        model["momenta"][0]["label"] = label
        pathlib.Path(grid_file).write_text(json.dumps(model))
        code, out, err = invoke(
            capsys, "scatter", "grid", "--model", grid_file, "--incoming", str(label)
        )
        assert (code, out) == (1, "")
        assert f"{grid_file}.momenta[0].label: expected a string" in err

    def test_grid_unknown_incoming(self, capsys, grid_file):
        code, _, err = invoke(
            capsys, "scatter", "grid", "--model", grid_file, "--incoming", "zzz"
        )
        assert code == 1
        assert "incoming" in err

    def test_grid_with_small_scattering_state_exits_0(self, capsys, tmp_path):
        # With V the identity and epsilon 1e-7, (1 - G0 V) has a diagonal of
        # about 1e7 at the incoming point, so |psi+| is about 1e-7: a well-posed
        # solve, not a state vector the report needs normalised.
        model = write_json(tmp_path / "grid.json", {
            "momenta": [{"label": "a", "energy": 0.0}, {"label": "b", "energy": 1.0}],
            "mass": 1.0, "epsilon": 1e-7, "V": [[1.0, 0.0], [0.0, 1.0]],
        })
        code, out, err = invoke(capsys, "scatter", "grid", "--model", model, "--incoming", "a")
        assert (code, err) == (0, "")
        assert json.loads(out)["diagnostics"]["solve_defect"] < 1e-12

    def test_separable_residual_finite_where_its_square_overflows(self, capsys):
        # |f1|^2 is about 1.6e313, but k |f1|^2 is about 1.6e113.
        code, out, err = invoke(
            capsys, "scatter", "separable", "--coupling", "-1e155",
            "--beta", "1", "--mass", "1", "--k", "1e-200", "--born-order", "1",
        )
        assert (code, err) == (0, "")
        assert_separable_report_near_reference(
            json.loads(out)["results"], separable_reference(-1e155, 1.0, 1.0, 1e-200, born_order=1)
        )

    def test_separable_born_order_one_where_chi_squared_leaves_the_doubles(self, capsys):
        # chi^2 is about 2.5e-641 and 1 - c I about 1e120: the exact amplitude
        # is about 1e-160i and the first Born term -9.9e-40
        code, out, err = invoke(
            capsys, "scatter", "separable", "--coupling", "1e300",
            "--beta", "1e160", "--mass", "1e300", "--k", "1e160", "--born-order", "1",
        )
        assert (code, err) == (0, "")
        assert_separable_report_near_reference(
            json.loads(out)["results"], separable_reference(1e300, 1e160, 1e300, 1e160, born_order=1)
        )

    @pytest.mark.parametrize(("beta", "k", "field"), [
        ("1e-300", "1e-290", "the order-2 Born amplitude"),
        ("1e160", "1e160", "the optical residual of the order-2 Born amplitude"),
    ])
    def test_separable_born_fields_past_the_doubles_exit_2(self, capsys, beta, k, field):
        # the exact amplitudes are doubles (test_scattering), but these Born
        # fields are not, in separable_reference either
        code, out, _ = invoke(
            capsys, "scatter", "separable", "--coupling", "1e300",
            "--beta", beta, "--mass", "1e300", "--k", k,
        )
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "Overflow"
        assert error["message"].startswith(field + " overflows")

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
        assert_near_reference(results["born_error"], separable_reference(-0.1, 1.0, 1.0, 0.5)["born_error"])

    def test_separable_bad_momentum(self, capsys):
        code, out, err = invoke(
            capsys, "scatter", "separable", "--coupling", "-0.1",
            "--beta", "1.0", "--mass", "1.0", "--k", "-2.0",
        )
        assert (code, out) == (1, "")
        assert err == "ggphase: error: on-shell momentum must be positive, got -2.0\n"

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
        assert error["type"] == "Overflow"
        assert f"order-{order}" in error["message"]
        assert "coupling 10.0" in error["message"]
        assert "Traceback" not in err

    # A tiny beta makes c I huge; a huge beta or k puts chi(k)^2 near or
    # below the smallest double, where the reference is matched to a few ulp.
    @pytest.mark.parametrize(("beta", "k"), [
        ("1e-60", "1"), ("1e-100", "1"), ("1.2e77", "1.0"), ("1.0", "1e80"), ("1.0", "1e300"),
    ])
    def test_separable_extreme_scale_matches_exact_reference(self, capsys, beta, k):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "scatter", "separable", "--coupling", "0.1",
            "--beta", beta, "--mass", "1", "--k", k,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert_separable_report_near_reference(
            json.loads(out)["results"], separable_reference(0.1, float(beta), 1.0, float(k))
        )

    @pytest.mark.parametrize("coupling", [1e-1, -1e-2, 1e-3, -1e-4, 1e-5, -1e-6, 1e-7, -1e-8])
    def test_separable_born_fields_keep_their_digits_at_small_coupling(self, capsys, coupling):
        # born_error and the Born residual are the truncation's size and its
        # unitarity defect, both O(coupling^(order+1)): taken as differences of
        # the rounded amplitudes they kept no digit at coupling 1e-8, order 4.
        # Each is held to 1e-12 of its own size, the residual too, although
        # Im f_n and k |f_n|^2 are about coupling^(1 - order) times larger.
        rng = rng_for(19)
        for _ in range(3):
            beta, mass, k = (float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(3))
            for order in range(1, 9):
                code, out, err = invoke(
                    capsys, "scatter", "separable", "--coupling", repr(coupling), "--beta", repr(beta),
                    "--mass", repr(mass), "--k", repr(k), "--born-order", str(order),
                )
                assert (code, err) == (0, "")
                results = json.loads(out)["results"]
                ref = separable_reference(coupling, beta, mass, k, born_order=order)
                assert_separable_report_near_reference(results, ref)
                assert_near_reference(results["born_optical_residual"], ref["born_optical_residual"])

    def test_separable_high_born_order_is_the_exact_amplitude(self, capsys):
        # |coupling * I| is about 0.32, so 10**9 terms are the geometric limit.
        start = time.perf_counter()
        code, out, _ = invoke(
            capsys, "scatter", "separable", "--coupling", "-0.02",
            "--beta", "1", "--mass", "1", "--k", "0.5", "--born-order", "1000000000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        results = json.loads(out)["results"]
        exact, born = (complex(results[name]["re"], results[name]["im"])
                       for name in ("amplitude", "born_amplitude"))
        assert abs(born - exact) <= 1e-12 * abs(exact)


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

    def test_mixed_int_and_float_values_keep_their_types(self, capsys, tmp_path):
        template = write_json(
            tmp_path / "job.json", {"command": "two-level", "kind": "x", "phi": 0.25}
        )
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "sweep", "--template", template, "--param", "theta",
            "--values", "1", "1.5", "2", "--csv", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().splitlines() == [
            "theta,phi,phase",
            "1,0.25,0.25",
            "1.5,0.25,0.25",
            "2,0.25,0.25",
        ]
        values = [row["value"] for row in json.loads(out)["results"]["rows"]]
        assert [(v, type(v)) for v in values] == [(1, int), (1.5, float), (2, int)]

    @pytest.mark.parametrize(("template_extra", "param", "named"), [
        ({}, "sampels", "sampels"),
        ({"sampels": 5}, "tau", "sampels"),
        ({}, "output", "output"),
        ({"tol": 1e-9}, "samples", "tol"),
    ])
    def test_key_the_command_never_reads_is_refused(self, capsys, tmp_path, template_extra,
                                                     param, named):
        # a key the command does not read would silently leave its default
        a = write_json(tmp_path / "a.json", [1, 0])
        b = write_json(tmp_path / "b.json", cvec([0.6j, 0.8]))
        template = write_json(tmp_path / "job.json", {
            "command": "null-curve", "a": a, "b": b, "identity": True, **template_extra,
        })
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", param, "--values", "5", "7"
        )
        assert (code, out) == (1, "")
        assert f"sweep key {named!r} is not a flag of 'null-curve'" in err

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

    @pytest.mark.parametrize("command", [["phase"], {"name": "phase"}, 3, None])
    def test_command_that_is_not_a_string(self, capsys, tmp_path, command):
        template = write_json(tmp_path / "job.json", {"command": command, "epsilon": 0.1})
        code, out, err = invoke(
            capsys, "sweep", "--template", template, "--param", "epsilon", "--values", "1"
        )
        assert (code, out) == (1, "")
        assert f'{template}: "command" must be a string, got {command!r}' in err

    @staticmethod
    def count_opens(monkeypatch) -> list:
        """The paths _io opens from now on, in order."""
        opened = []

        def counted(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(_io, "open", counted, raising=False)
        return opened

    def test_a_sweep_opens_each_input_file_once(self, capsys, tmp_path, h3_file, monkeypatch):
        template = write_json(tmp_path / "job.json", {"command": "cycle", "h": h3_file, "epsilon": 0.01})
        opened = self.count_opens(monkeypatch)
        code, out, _ = invoke(
            capsys, "sweep", "--template", template, "--param", "epsilon", "--values", "1e-2", "5e-3", "2.5e-3"
        )
        assert code == 0
        assert len(json.loads(out)["results"]["rows"]) == 3
        assert opened == [template, h3_file]
        # the rows' shared loads end with the sweep: a direct job opens its file again
        assert invoke(capsys, "cycle", "--h", h3_file, "--epsilon", "0.01")[0] == 0
        assert opened == [template, h3_file, h3_file]

    @pytest.mark.parametrize(("content", "message"), [
        ("{not json", "is not valid JSON"),
        (json.dumps([[1, 2], [3, 4]]), "observable is not Hermitian"),
    ], ids=["not-json", "not-hermitian"])
    def test_a_bad_input_file_ends_the_sweep_on_its_first_row(self, capsys, tmp_path, monkeypatch,
                                                              content, message):
        h = tmp_path / "h.json"
        h.write_text(content, encoding="utf-8")
        direct = invoke(capsys, "cycle", "--h", str(h), "--epsilon", "0.01")
        assert direct[:2] == (1, "") and message in direct[2]
        template = write_json(tmp_path / "job.json", {"command": "cycle", "h": str(h), "epsilon": 0.01})
        opened = self.count_opens(monkeypatch)
        swept = invoke(capsys, "sweep", "--template", template, "--param", "epsilon", "--values", "1e-2", "5e-3")
        # the first row's job fails as the direct job does, and the sweep ends there
        assert swept == direct
        assert opened == [template, str(h)]

    def test_a_direct_job_opens_a_file_named_twice_once(self, capsys, tmp_path, monkeypatch):
        state = write_json(tmp_path / "a.json", cvec([0.6, 0.8j]))
        opened = self.count_opens(monkeypatch)
        code, _, _ = invoke(capsys, "null-curve", "--a", state, "--b", state, "--identity", "--samples", "5")
        assert code == 0
        assert opened == [state]

    def test_a_swept_path_holding_a_comma_is_one_csv_cell(self, capsys, tmp_path, h3_file):
        h_comma = shutil.copy(h3_file, tmp_path / "h,1.json")
        h_quote = shutil.copy(h3_file, tmp_path / 'h"2.json')
        template = write_json(tmp_path / "job.json", {"command": "cycle", "h": h3_file, "epsilon": 0.01})
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = invoke(
            capsys, "sweep", "--template", template, "--param", "h",
            "--values", str(h_comma), str(h_quote), "--csv", str(out_csv),
        )
        assert code == 0
        with open(out_csv, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["h", "amplitude_re", "amplitude_im", "extracted_phase", "epsilon"]
        assert [len(row) for row in rows] == [len(header)] * 2
        assert [row[0] for row in rows] == [str(h_comma), str(h_quote)]


def sweep_jobs(d: pathlib.Path) -> dict:
    """One valid job per subcommand and scatter mode: its sweep template, the
    swept key and value, and the command line of that one-value sweep row."""
    states = write_json(d / "states.json", [[1, 0], cvec([0.6, 0.8j]), cvec([0.5, 0.5 + 0.2j])])
    x = write_json(d / "x.json", X_MATRIX)
    curve = write_json(d / "curve.json", {"params": [0, 0.5, 1], "states": [[1, 0], [0.8, 0.6], [0.6, 0.8]]})
    a, b = write_json(d / "a.json", [1, 0]), write_json(d / "b.json", cvec([0.6, 0.8j]))
    h = write_json(d / "h.json", cmat(random_hermitian(rng_for(11), 3).entries))
    h0 = write_json(d / "h0.json", [0.0, 1.1, 2.3])
    v = write_json(d / "v.json", cmat(random_hermitian(rng_for(12), 3).entries))
    grid = write_json(d / "grid.json", {
        "momenta": [{"label": f"k{j}", "energy": e} for j, e in enumerate([0.5, 1.2, 2.0])],
        "mass": 1.0, "epsilon": 0.8, "V": cmat(random_hermitian(rng_for(13), 3).entries),
    })
    return {
        "phase": ({"command": "phase", "states": states, "identity": True}, "states", states,
                  ["phase", "--states", states, "--identity"]),
        "curve": ({"command": "curve", "curve": curve, "observable": x}, "observable", x,
                  ["curve", "--curve", curve, "--observable", x]),
        "null-curve": ({"command": "null-curve", "a": a, "b": b, "identity": True, "samples": 5},
                       "tau", "0.5",
                       ["null-curve", "--a", a, "--b", b, "--identity", "--samples", "5", "--tau", "0.5"]),
        "cycle": ({"command": "cycle", "h": h, "epsilon": 0.01}, "epsilon", "0.02",
                  ["cycle", "--h", h, "--epsilon", "0.02"]),
        "two-level": ({"command": "two-level", "kind": "hadamard", "theta": 1.0, "phi": 0.25},
                      "phi", "-0.5", ["two-level", "--kind", "hadamard", "--theta", "1", "--phi", "-0.5"]),
        "perturb": ({"command": "perturb", "h0": h0, "v": v, "level": 1, "coupling": 0.1},
                    "coupling", "0.2", ["perturb", "--h0", h0, "--v", v, "--level", "1", "--lambda", "0.2"]),
        "scatter grid": ({"command": "scatter", "mode": "grid", "model": grid, "incoming": "k0"},
                         "incoming", "k1", ["scatter", "grid", "--model", grid, "--incoming", "k1"]),
        "scatter separable": (
            {"command": "scatter", "mode": "separable", "beta": 1.0, "coupling": -0.5, "mass": 1.0,
             "k": 1.0, "born_order": 3},
            "k", "1.5",
            ["scatter", "separable", "--beta", "1", "--coupling", "-0.5", "--mass", "1", "--k", "1.5",
             "--born-order", "3"],
        ),
    }


SWEEP_JOB_NAMES = [
    "phase", "curve", "null-curve", "cycle", "two-level", "perturb", "scatter grid", "scatter separable",
]


@pytest.fixture(scope="module")
def job_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@pytest.fixture(scope="module")
def jobs(job_dir):
    return sweep_jobs(job_dir)


# Any JSON value: every template key may hold one.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def run_contained(argv) -> tuple[int, str]:
    """main(argv) with stdout strict UTF-8, as in a real process, and stderr
    backslash-escaped like sys.stderr: the exit status and the stdout text.
    An exception that escapes main fails the calling test."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8")


def assert_exit_contract(code: int, text: str) -> None:
    """One of the three outcomes of the README: exit 0 with a report, exit 1
    with nothing on stdout, or exit 2 with the payload of a DomainError
    subclass named in ggphase.errors (never a ValueError reported as physics)."""
    if code == 0:
        assert "results" in json.loads(text)
    elif code == 1:
        assert text == ""
    else:
        assert code == 2
        error_type = getattr(gg.errors, json.loads(text)["error"]["type"], None)
        assert isinstance(error_type, type) and issubclass(error_type, gg.DomainError)


def assert_exit_contract_within_seconds(argv) -> None:
    start = time.perf_counter()
    assert_exit_contract(*run_contained(argv))
    assert time.perf_counter() - start < 5.0


def allocates(key: str, value) -> bool:
    """A sample count of 10**5 or more: that many array rows."""
    try:
        return key == "samples" and int(str(value)) >= 10**5
    except ValueError:
        return False


class TestSweepRowsAreCommandLines:
    """A sweep row is parsed by the parser of the command line it stands for,
    so it runs like that command line and is refused like it."""

    @pytest.mark.parametrize("name", SWEEP_JOB_NAMES)
    def test_one_row_sweep_is_the_direct_job(self, capsys, job_dir, jobs, name):
        template, param, value, argv = jobs[name]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        direct = json.loads(out)["results"]
        path = write_json(job_dir / "job.json", template)
        code, out, _ = invoke(capsys, "sweep", "--template", path, "--param", param, "--values", value)
        assert code == 0
        assert json.loads(out)["results"]["rows"][0]["results"] == direct

    @pytest.mark.parametrize(("template", "param", "value", "argv"), [
        ({"command": "two-level", "kind": "y", "theta": 1.0}, "phi", "0.5",
         ["two-level", "--kind=y", "--theta=1.0", "--phi=0.5"]),
        ({"command": "two-level", "kind": "X", "theta": 1.0}, "phi", "0.5",
         ["two-level", "--kind=X", "--theta=1.0", "--phi=0.5"]),
        ({"command": "phase", "states": "s.json", "identity": "no"}, "states", "s.json",
         ["phase", "--states=s.json", "--identity=no"]),
        ({"command": "two-level", "kind": "x", "theta": False}, "phi", "0.5",
         ["two-level", "--kind=x", "--phi=0.5"]),
        ({"command": "null-curve", "a": "a.json", "b": "b.json", "identity": True, "samples": 5.0},
         "tau", "0.5", ["null-curve", "--a=a.json", "--b=b.json", "--identity", "--samples=5.0", "--tau=0.5"]),
        ({"command": "scatter", "mode": "grid", "model": "m.json", "incoming": "k1", "beta": 1.0},
         "k", "1.0", ["scatter", "grid", "--model=m.json", "--incoming=k1", "--beta=1.0", "--k=1.0"]),
    ], ids=["kind y", "kind X", "identity no", "theta false", "samples 5.0", "grid with beta and k"])
    def test_template_value_is_refused_like_its_command_line(self, capsys, tmp_path, template, param,
                                                             value, argv):
        code, out, want = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        path = write_json(tmp_path / "job.json", template)
        code, out, err = invoke(capsys, "sweep", "--template", path, "--param", param, "--values", value)
        assert (code, out) == (1, "")
        assert want in err

    def test_mode_that_reads_as_an_option(self, capsys, tmp_path):
        template = write_json(tmp_path / "job.json", {"command": "scatter", "mode": "-h"})
        code, out, err = invoke(capsys, "sweep", "--template", template, "--param", "k", "--values", "1")
        assert (code, out) == (1, "")
        assert "sweep key 'mode' must be a mode of 'scatter', got '-h'" in err

    @pytest.mark.parametrize(("template", "param", "value", "message"), [
        ({"command": "phase", "states": 0, "observable": "x.json"}, "observable", "x.json", "cannot read 0"),
        ({"command": "phase", "states": True, "observable": "x.json"}, "observable", "x.json",
         "argument --states: expected one argument"),
        ({"command": "cycle", "h": 1.5, "epsilon": 0.01}, "epsilon", "0.02", "cannot read 1.5"),
    ])
    def test_path_value_is_a_file_name(self, tmp_path, template, param, value, message):
        # A number is a file name, never a file descriptor such as stdin.
        write_json(tmp_path / "x.json", X_MATRIX)
        write_json(tmp_path / "job.json", template)
        proc = run_module("sweep", "--template", "job.json", "--param", param, "--values", value,
                          cwd=tmp_path, input=json.dumps([[1, 0], [0.6, 0.8], [0.8, 0.6]]))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", SWEEP_JOB_NAMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_template_value_keeps_the_exit_contract(self, job_dir, jobs, name, data):
        template, param, value, _ = jobs[name]
        key = data.draw(st.sampled_from(sorted(template)), label="key")
        replacement = data.draw(JSON_VALUES, label="value")
        assume(not allocates(key, replacement))
        path = write_json(job_dir / "fuzz.json", {**template, key: replacement})
        assert_exit_contract(*run_contained(["sweep", "--template", path, "--param", param, "--values", value]))


# Numbers a file may hold: ordinary ones, any float (nan and inf are written
# as NaN and Infinity, which the JSON reader accepts), and magnitudes at the
# edge of the doubles or past them.
FUZZ_NUMBERS = (
    st.floats(-2, 2) | st.integers(-3, 3) | st.floats()
    | st.sampled_from([1e308, -1e308, 1.7e308, 1e200, 1e160, -1e160, 5e-324, 10**400])
)
FUZZ_COMPLEX = FUZZ_NUMBERS | st.fixed_dictionaries({"re": FUZZ_NUMBERS, "im": FUZZ_NUMBERS})
# Any JSON value, including {re, im} objects that lack a part.
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | FUZZ_NUMBERS | st.text(max_size=4)
    | st.dictionaries(st.sampled_from(["re", "im"]), FUZZ_NUMBERS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
FUZZ_DIMS = st.sampled_from([3, 3, 3, 1, 2, 4])  # mostly the dimension of the other inputs
FUZZ_POSITIVE = st.floats(0.1, 2) | FUZZ_NUMBERS  # mostly a usable mass or regulator


@st.composite
def fuzz_vector(draw, dim=None):
    dim = draw(FUZZ_DIMS) if dim is None else dim
    return draw(st.lists(FUZZ_COMPLEX, min_size=dim, max_size=dim))


@st.composite
def fuzz_matrix(draw, rows=None):
    dim = draw(FUZZ_DIMS)
    rows = draw(st.sampled_from([3, 3, 4, 0, 1, 2, 5])) if rows is None else rows
    return [draw(fuzz_vector(dim)) for _ in range(rows)]


@st.composite
def fuzz_hermitian(draw):
    """A square matrix that is Hermitian to the bit, so the job reaches the
    library with it."""
    dim = draw(FUZZ_DIMS)
    m = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = draw(FUZZ_NUMBERS)
        for j in range(i + 1, dim):
            re, im = draw(FUZZ_NUMBERS), draw(FUZZ_NUMBERS)
            m[i][j], m[j][i] = {"re": re, "im": im}, {"re": re, "im": -im}
    return m


@st.composite
def fuzz_reals(draw):
    values = [draw(FUZZ_NUMBERS) for _ in range(draw(FUZZ_DIMS | st.integers(0, 5)))]
    return sorted(values) if draw(st.booleans()) else values


@st.composite
def fuzz_curve(draw):
    params = draw(fuzz_reals())
    return {"params": params, "states": draw(fuzz_matrix(rows=len(params)))}


@st.composite
def fuzz_grid_model(draw):
    energies = draw(fuzz_reals())
    momenta = [{"label": f"k{j}", "energy": energy} for j, energy in enumerate(energies)]
    return {"momenta": momenta, "mass": draw(FUZZ_POSITIVE), "epsilon": draw(FUZZ_POSITIVE),
            "V": draw(fuzz_hermitian())}


@st.composite
def one_key_replaced(draw, objects):
    """An object of the expected shape with one key's value replaced by any JSON."""
    obj = draw(objects)
    key = draw(st.sampled_from(sorted(obj)))
    return {**obj, key: draw(FUZZ_JSON)}


# Each file input of the CLI: the command line around it, and the contents
# that reach past its parser (a replaced key, or any JSON, may stop short).
FRONT_DOOR_INPUTS = {
    "phase --states": (["phase", "--states", "{file}", "--observable", "{obs}"], fuzz_matrix()),
    "curve --curve": (["curve", "--curve", "{file}", "--observable", "{obs}"],
                      fuzz_curve() | one_key_replaced(fuzz_curve())),
    "curve --observable": (["curve", "--curve", "{curve}", "--observable", "{file}"],
                           fuzz_hermitian() | fuzz_matrix()),
    "null-curve --a": (["null-curve", "--a", "{file}", "--b", "{b}", "--identity", "--samples", "5"],
                       fuzz_vector()),
    "cycle --h": (["cycle", "--h", "{file}", "--epsilon", "0.01"], fuzz_hermitian() | fuzz_matrix()),
    "perturb --h0": (["perturb", "--h0", "{file}", "--v", "{v}", "--level", "1", "--lambda", "0.1"],
                     fuzz_reals()),
    "perturb --v": (["perturb", "--h0", "{h0}", "--v", "{file}", "--level", "1", "--lambda", "0.1"],
                    fuzz_hermitian() | fuzz_matrix()),
    "scatter grid --model": (["scatter", "grid", "--model", "{file}", "--incoming", "k0"],
                             fuzz_grid_model() | one_key_replaced(fuzz_grid_model())),
}


@pytest.fixture(scope="module")
def front_door_files(tmp_path_factory):
    """Valid three-dimensional inputs for every file the fuzzed one runs with."""
    d = tmp_path_factory.mktemp("front_door")
    return {
        "obs": write_json(d / "obs.json", cmat(random_hermitian(rng_for(21), 3).entries)),
        "curve": write_json(d / "curve.json", {
            "params": [0, 0.5, 1], "states": [[1, 0, 0], [0.8, 0.6, 0], [0.6, 0.6, 0.53]]}),
        "b": write_json(d / "b.json", cvec([0.6, 0.8j, 0.0])),
        "h0": write_json(d / "h0.json", [0.0, 1.1, 2.3]),
        "v": write_json(d / "v.json", cmat(random_hermitian(rng_for(22), 3).entries)),
        "file": str(d / "fuzz.json"),
    }


class TestFrontDoor:
    """Whatever a file holds, a job ends in exit 0, exit 1 with nothing on
    stdout, or exit 2 with a typed domain error."""

    @pytest.mark.parametrize("name", sorted(FRONT_DOOR_INPUTS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_file_contents_keep_the_exit_contract(self, front_door_files, name, data):
        argv, contents = FRONT_DOOR_INPUTS[name]
        write_json(pathlib.Path(front_door_files["file"]), data.draw(contents | FUZZ_JSON, label="contents"))
        assert_exit_contract(*run_contained([word.format(**front_door_files) for word in argv]))

    @pytest.mark.parametrize("argv", [
        ["perturb", "--h0", "{h0}", "--v", "{v}", "--level", "500", "--lambda", "0.1"],
        ["scatter", "separable", "--beta", "1", "--coupling", "0.1", "--mass", "1", "--k", "1",
         "--born-order", "0"],
        ["cycle", "--h", "{v}", "--epsilon", "-0.1"],
        ["two-level", "--kind", "x", "--theta", "9", "--phi", "0"],
    ], ids=["level 500", "born order 0", "negative epsilon", "theta 9"])
    def test_refused_argument_is_an_invocation_error(self, capsys, front_door_files, argv):
        code, out, err = invoke(capsys, *[word.format(**front_door_files) for word in argv])
        assert (code, out) == (1, "")
        assert err.startswith("ggphase: error: ")


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


# Entries on both sides of o_null_curve's overflow screen, DBL_MAX / 4: below
# it the states are proved finite, above it they are formed and checked.
QUARTER_MAX = sys.float_info.max / 4
SCREEN_EDGE = st.sampled_from([math.nextafter(QUARTER_MAX, 0.0), QUARTER_MAX,
                               math.nextafter(QUARTER_MAX, math.inf)])
SMALL_PARTS = st.floats(-2.0, 2.0)


@st.composite
def endpoint_pair(draw):
    """Two endpoint files of one dim; half the pairs hold only small parts."""
    dim = draw(st.integers(1, 3))
    parts = draw(st.sampled_from([SMALL_PARTS, SMALL_PARTS | SCREEN_EDGE | SCREEN_EDGE.map(float.__neg__)]))
    entry = st.builds(lambda re, im: {"re": re, "im": im}, parts, parts)
    return [draw(st.lists(entry, min_size=dim, max_size=dim)) for _ in range(2)]


@pytest.fixture(scope="module")
def null_curve_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("null_curve_numbers")
    return {name: str(d / f"{name}.json") for name in ("a", "b", "obs")}


@pytest.fixture(scope="module")
def number_files(tmp_path_factory):
    """A cycle Hamiltonian, and perturbation levels with a Hermitian V."""
    d = tmp_path_factory.mktemp("command_line_numbers")
    return {
        "h": write_json(d / "h.json", cmat(random_hermitian(rng_for(71), 3).entries)),
        "h0": write_json(d / "h0.json", [-1.0, 0.0, 0.5, 2.0]),
        "v": write_json(d / "v.json", cmat(random_hermitian(rng_for(72), 4).entries)),
    }


class TestCommandLineNumbers:
    """Whatever finite numbers the flags hold, every command that takes them
    ends in the exit contract within seconds."""

    @given(epsilon=FINITE_FLOATS)
    @settings(max_examples=100, deadline=None)
    def test_any_cycle_epsilon_keeps_the_exit_contract(self, number_files, epsilon):
        argv = ["cycle", "--h", number_files["h"], "--epsilon", repr(epsilon)]
        assert_exit_contract_within_seconds(argv)

    @given(kind=st.sampled_from(["x", "hadamard"]), theta=FINITE_FLOATS, phi=FINITE_FLOATS)
    @settings(max_examples=100, deadline=None)
    def test_any_two_level_angles_keep_the_exit_contract(self, kind, theta, phi):
        argv = ["two-level", "--kind", kind, "--theta", repr(theta), "--phi", repr(phi)]
        assert_exit_contract_within_seconds(argv)

    @given(level=st.integers(-5, 8) | st.integers(), coupling=FINITE_FLOATS)
    @settings(max_examples=100, deadline=None)
    def test_any_perturb_numbers_keep_the_exit_contract(self, number_files, level, coupling):
        argv = ["perturb", "--h0", number_files["h0"], "--v", number_files["v"],
                "--level", str(level), "--lambda", repr(coupling)]
        assert_exit_contract_within_seconds(argv)

    @given(beta=FINITE_FLOATS, coupling=FINITE_FLOATS, mass=FINITE_FLOATS, k=FINITE_FLOATS,
           order=st.integers())
    @settings(max_examples=200, deadline=None)
    def test_any_separable_flags_keep_the_exit_contract(self, beta, coupling, mass, k, order):
        # wherever the exact amplitude and its residual are doubles, only
        # the Born fields, which may leave the doubles, can end the job in exit 2
        argv = ["scatter", "separable", "--beta", repr(beta), "--coupling", repr(coupling),
                "--mass", repr(mass), "--k", repr(k), "--born-order", str(order)]
        start = time.perf_counter()
        code, text = run_contained(argv)
        assert time.perf_counter() - start < 5.0
        assert_exit_contract(code, text)
        if min(beta, mass, k) > 0.0 and order >= 1 and separable_exact_is_a_double(coupling, beta, mass, k):
            assert code == 0 or "Born" in json.loads(text)["error"]["message"], text

    @given(tau=st.floats(0.1, 3.0) | FINITE_FLOATS, samples=st.integers(3, 10**5), ends=endpoint_pair(),
           identity=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_null_curve_flags_keep_the_exit_contract(self, null_curve_files, tau, samples, ends,
                                                         identity):
        for name, entries in zip("ab", ends):
            write_json(pathlib.Path(null_curve_files[name]), entries)
        positive = (np.eye(len(ends[0])) + 0.5).tolist()
        obs = ["--identity"] if identity else [
            "--observable", write_json(pathlib.Path(null_curve_files["obs"]), positive)]
        argv = ["null-curve", "--a", null_curve_files["a"], "--b", null_curve_files["b"], *obs,
                "--tau", repr(tau), "--samples", str(samples)]
        assert_exit_contract_within_seconds(argv)


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
        # Entries of 1e200 overflow: the perturbation series and the chain's
        # link moduli become infinite, and a report cannot carry them. The
        # message names the first such quantity by its key path.
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.0])
        v = write_json(tmp_path / "v.json", [[1e200, 1e200], [1e200, 1e200]])
        states = write_json(tmp_path / "s.json", [[1e200, 0], [1e200, 0], [1e200, 0]])
        cases = [
            (["perturb", "--h0", h0, "--v", v, "--level", "0", "--lambda", "1e-300"],
             "results.shift.order2 is -inf"),
            (["phase", "--states", states, "--identity"], "results.min_link_modulus is inf"),
        ]
        for argv, quantity in cases:
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
            assert error["type"] == "Overflow"
            assert "finite" in error["message"]
            assert quantity in error["message"]


def run_module(*argv, memory_cap=None, **kwargs) -> subprocess.CompletedProcess:
    """python -m ggphase.cli in a fresh process, so numpy's warnings reach its
    stderr. With ``memory_cap``, the process's address space is capped at that
    many bytes and BLAS runs one thread; other keyword arguments go to
    subprocess.run."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    if memory_cap is not None:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        kwargs["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))
    return subprocess.run(
        [sys.executable, "-m", "ggphase.cli", *argv], capture_output=True, text=True, env=env, **kwargs
    )


class TestQuietExit2:
    def test_overflowing_perturbation_prints_nothing_to_stderr(self, tmp_path):
        # Entries of 1e200 overflow the series and the triple table; the
        # exit-2 payload names the infinite value, and stderr stays empty.
        h0 = write_json(tmp_path / "h0.json", [0.0, 1.0])
        v = write_json(tmp_path / "v.json", [[1e200, 1e200], [1e200, 1e200]])
        proc = run_module("perturb", "--h0", h0, "--v", v, "--level", "0", "--lambda", "1e-300")
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert "results.shift.order2 is -inf" in json.loads(proc.stdout)["error"]["message"]

    @pytest.mark.parametrize("observable", [None, [[1e200, 1e200], [1e200, 1e200]]])
    def test_overflowing_chain_prints_nothing_to_stderr(self, tmp_path, observable):
        # Links of 1e200-sized states overflow in the kernel's products; the
        # exit-2 payload names the non-finite result, and stderr stays empty.
        states = write_json(tmp_path / "F.json", [[1e200, 0], [1e200, 0], [1e200, 0]])
        obs_args = ["--identity"] if observable is None else [
            "--observable", write_json(tmp_path / "o.json", observable)]
        proc = run_module("phase", "--states", states, *obs_args)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert "reports must be finite" in json.loads(proc.stdout)["error"]["message"]

    @pytest.mark.parametrize("observable", [None, [[1e200, 1e200], [1e200, 1e200]]])
    def test_overflowing_curve_prints_nothing_to_stderr(self, tmp_path, observable):
        # The endpoint link <psi(L)|O|psi(0)> is not zero, so the kernel, the
        # connection quotient and the endpoint sandwich all overflow.
        curve = write_json(tmp_path / "c.json", {
            "params": [0, 1, 2], "states": [[1e200, 0], [1e200, 1e200], [1e200, 1e200]],
        })
        obs_args = ["--identity"] if observable is None else [
            "--observable", write_json(tmp_path / "o.json", observable)]
        proc = run_module("curve", "--curve", curve, *obs_args)
        assert proc.returncode == 2
        assert proc.stderr == ""

    # Finite entries whose <B|B>, or whose <A|A> and |<B|A>|, exceed a double.
    @pytest.mark.parametrize(("a", "b"), [
        ([1e160, 0], [1e160, 1e160]),
        ([0.5, {"re": 1e308, "im": 1e308}], [1.2, 1.4]),
    ])
    def test_null_curve_overflow_from_finite_endpoints(self, tmp_path, a, b):
        a, b = write_json(tmp_path / "a.json", a), write_json(tmp_path / "b.json", b)
        proc = run_module("null-curve", "--a", a, "--b", b, "--identity", "--samples", "5")
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout)["error"]["type"] == "Overflow"

    @pytest.mark.parametrize("observable", [None, [[1e200, 1e200], [1e200, 1e200]]])
    def test_overflowing_null_curve_prints_nothing_to_stderr(self, tmp_path, observable):
        a = write_json(tmp_path / "a.json", [1e200, 0])
        b = write_json(tmp_path / "b.json", [1e200, 1e200])
        obs_args = ["--identity"] if observable is None else [
            "--observable", write_json(tmp_path / "o.json", observable)]
        proc = run_module("null-curve", "--a", a, "--b", b, "--samples", "5", *obs_args)
        assert proc.returncode == 2
        assert proc.stderr == ""


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
