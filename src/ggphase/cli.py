"""Batch command-line front door: one declarative job per invocation, files
in, a deterministic JSON report (and optional CSV table) out.

argparse is the one flag validator: each subparser names its handler
(_add_common), and a handler reads typed, checked arguments. A sweep row is
turned into the command line it stands for and parsed by the same parser.
``main`` times the handler, then writes the report, or the error payload of a
domain error, by one path: to --output, or to stdout without it.
Exit status contract, decided by the exception's type alone: 0 on success,
2 when a DomainError says the requested quantity does not exist (Overflow
included), 1 when the job was asked wrongly: a bad flag, an unreadable or
malformed file (InputError), or an argument the library refuses
(InvalidArgument). Any other exception is a bug. Reports print every float with
17 significant digits (integral ones as "1.0"), so identical inputs produce
byte-identical reports except for the wall_time_s field. All angles are
radians in (-pi, pi].
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
import time

import numpy as np

from . import _io
from ._io import InputError, Table
from .curve import ParamCurve, connection_samples, curve_phase, o_null_curve
from .dynamics import TwoLevelParams, projective_cycle_amplitude, two_level_phase
from .errors import DomainError, InvalidArgument
from .hilbert import (
    DEFAULT_TOLS,
    Observable,
    StateVector,
    ToleranceConfig,
    matrix_element,
    principal_arg,
    wrapped_distance,
)
from .perturbation import EigenSystem, energy_shift, third_order_phase_terms
from .phase import generalized_phase_chain
from .scattering import (
    GridModel,
    SeparableModel,
    born_forward_amplitude,
    lippmann_schwinger_solve,
    optical_theorem_residual,
    separable_born_amplitude,
    separable_tmatrix,
    triple_product_phases,
)

__all__ = ["main"]


# Input loading ---------------------------------------------------------------


@contextlib.contextmanager
def _naming(path: str):
    """An argument the library refuses while building from a file is that
    file's fault: it becomes an InputError that names the file."""
    try:
        yield
    except InvalidArgument as exc:
        raise InputError(f"{path}: {exc}") from exc


def _state_from_file(path: str) -> StateVector:
    with _naming(path):
        return StateVector(_io.parse_vector(_io.load_json_file(path), path))


def _states_from_file(path: str) -> list[StateVector]:
    data = _io.load_json_file(path)
    if not isinstance(data, list):
        raise InputError(f"{path}: expected an array of state vectors")
    rows = _io.complex_rows(data)
    if rows is None:  # ragged or malformed: row by row, so the bad element is named
        rows = (_io.parse_vector(row, f"{path}[{i}]") for i, row in enumerate(data))
    with _naming(path):
        return [StateVector(row) for row in rows]


def _observable_from_file(path: str, tol: ToleranceConfig) -> Observable:
    with _naming(path):
        return Observable(_io.parse_matrix(_io.load_json_file(path), path), tol=tol)


def _resolve_observable(args: dict, tol: ToleranceConfig) -> Observable | None:
    return None if args["identity"] else _observable_from_file(args["observable"], tol)


def _curve_from_file(path: str, tol: ToleranceConfig) -> ParamCurve:
    data = _io.load_json_file(path)
    if not isinstance(data, dict) or set(data) != {"params", "states"}:
        raise InputError(f'{path}: expected an object with keys "params" and "states"')
    params = _io.parse_real_list(data["params"], f"{path}.params")
    states = _io.parse_matrix(data["states"], f"{path}.states")
    with _naming(path):
        return ParamCurve(params, states, tol=tol)


def _grid_model_from_file(path: str, tol: ToleranceConfig) -> GridModel:
    data = _io.load_json_file(path)
    required = {"momenta", "mass", "epsilon", "V"}
    if not isinstance(data, dict) or not required.issubset(data):
        raise InputError(f"{path}: expected an object with keys {sorted(required)}")
    momenta = data["momenta"]
    if not isinstance(momenta, list) or not momenta:
        raise InputError(f"{path}.momenta: expected a non-empty array")
    labels, energies = [], []
    for i, entry in enumerate(momenta):
        if not isinstance(entry, dict) or set(entry) != {"label", "energy"}:
            raise InputError(
                f'{path}.momenta[{i}]: expected an object with keys "label" and "energy"'
            )
        labels.append(str(entry["label"]))
        energies.append(_io.parse_real(entry["energy"], f"{path}.momenta[{i}].energy"))
    mass = _io.parse_real(data["mass"], f"{path}.mass")
    epsilon = _io.parse_real(data["epsilon"], f"{path}.epsilon")
    with _naming(path):
        potential = Observable(_io.parse_matrix(data["V"], f"{path}.V"), tol=tol)
        return GridModel(labels, energies, mass, potential, epsilon)


# Command handlers ------------------------------------------------------------


def _run_phase(args: dict, tol: ToleranceConfig):
    states = _states_from_file(args["states"])
    obs = _resolve_observable(args, tol)
    res = generalized_phase_chain(states, obs, tol=tol)
    results = {
        "value": res.value,
        "min_link_modulus": res.min_link_modulus,
        "chain_length": res.chain_length,
    }
    return results, {}, Table(**{name: [value] for name, value in results.items()})


def _run_curve(args: dict, tol: ToleranceConfig):
    curve = _curve_from_file(args["curve"], tol)
    obs = _resolve_observable(args, tol)
    samples = connection_samples(curve, obs, tol)
    res = curve_phase(curve, obs, tol, samples=samples)
    results = {
        "value": res.value,
        "min_link_modulus": res.min_link_modulus,
        "sample_count": curve.sample_count,
    }
    diagnostics = {
        "connection_integral": samples.integral,
        "extrapolated_samples": list(samples.extrapolated),
    }
    return results, diagnostics, Table(s=samples.params, a_o=samples.values)


def _run_null_curve(args: dict, tol: ToleranceConfig):
    a = _state_from_file(args["a"])
    b = _state_from_file(args["b"])
    obs = _resolve_observable(args, tol)
    samples_count, tau = args["samples"], args["tau"]
    if samples_count < 3:
        raise InputError(f"argument 'samples' must be at least 3, got {samples_count}")
    if samples_count > np.iinfo(np.intp).max // (16 * a.dim):  # no (M, dim) complex array
        raise InputError(f"argument 'samples' is too large for one array, got {samples_count}")
    try:
        curve = o_null_curve(a, b, obs, tau=tau, M=samples_count, tol=tol)
        samples = connection_samples(curve, obs, tol)
        res = curve_phase(curve, obs, tol, samples=samples)
    except MemoryError:
        raise InputError(f"argument 'samples' is too large for the memory available, got {samples_count}") from None
    expected = principal_arg(matrix_element(a, obs, b) / b.norm_sq)
    results = {
        "curve_phase": res.value,
        "connection_integral": samples.integral,
        "expected_integral": expected,
        "sample_count": curve.sample_count,
    }
    diagnostics = {
        "nullity_residual": abs(res.value),
        "min_link_modulus": res.min_link_modulus,
        "extrapolated_samples": list(samples.extrapolated),
    }
    return results, diagnostics, Table(s=samples.params, a_o=samples.values)


def _run_cycle(args: dict, tol: ToleranceConfig):
    h = _observable_from_file(args["h"], tol)
    if args["basis"]:
        basis = _states_from_file(args["basis"])
    else:
        if h.dim < 3:
            raise InputError("the default basis needs dim >= 3; pass --basis for dim-2 h")
        basis = [StateVector.basis_vector(h.dim, k) for k in range(3)]
    res = projective_cycle_amplitude(h, basis, args["epsilon"], tol=tol)
    results = {
        "amplitude": res.amplitude,
        "extracted_phase": res.extracted_phase,
        "epsilon": res.epsilon,
    }
    diagnostics = {
        "limit_phase": res.limit_phase,
        "limit_gap": wrapped_distance(res.extracted_phase, res.limit_phase),
    }
    return results, diagnostics, Table(epsilon=[res.epsilon], extracted_phase=[res.extracted_phase])


def _run_two_level(args: dict, tol: ToleranceConfig):
    kind = args["kind"]
    params = TwoLevelParams(args["theta"], args["phi"])
    value = two_level_phase(kind, params, tol=tol)
    results = {"kind": kind, "theta": params.theta, "phi": params.phi, "phase": value}
    return results, {}, Table(theta=[params.theta], phi=[params.phi], phase=[value])


def _run_perturb(args: dict, tol: ToleranceConfig):
    h0_path = args["h0"]
    with _naming(h0_path):
        system = EigenSystem.standard(_io.parse_real_list(_io.load_json_file(h0_path), h0_path))
    potential = _observable_from_file(args["v"], tol)
    n = args["level"]
    shift = energy_shift(system, potential, n, args["coupling"])
    terms = third_order_phase_terms(system, potential, n, tol=tol)
    table = Table(k=terms.k, l=terms.l, modulus=terms.modulus, gamma_v=terms.gamma_v,
                  denominator=terms.denominator)
    results = {
        "shift": {
            "order1": shift.order1,
            "order2": shift.order2,
            "order3": shift.order3,
            "coupling": shift.coupling,
            "total": shift.total,
        },
        "phase_terms": table,
    }
    diagnostics = {"level_count": system.level_count, "term_count": len(terms)}
    return results, diagnostics, table


def _incoming_index(model: GridModel, text: str) -> int:
    if text in model.labels:
        return model.index_of(text)
    try:
        index = int(text)
    except ValueError:
        raise InputError(
            f"--incoming {text!r} is neither a grid label nor an integer index"
        ) from None
    return index  # the solver refuses an index off the grid


def _run_scatter_grid(args: dict, tol: ToleranceConfig):
    model = _grid_model_from_file(args["model"], tol)
    index = _incoming_index(model, args["incoming"])
    state = lippmann_schwinger_solve(model, index)
    report = born_forward_amplitude(model, index)
    terms = triple_product_phases(model, index, tol=tol)
    table = Table(p=terms.k, q=terms.l, modulus=terms.modulus, gamma_v=terms.gamma_v,
                  denominator=terms.denominator)
    results = {
        "born": {
            "term0": report.term0,
            "term1": report.term1,
            "term2": report.term2,
            "total": report.total,
        },
        "phase_terms": table,
        "incoming": model.labels[index],
    }
    diagnostics = {
        "condition_number": state.condition_number,
        "spectral_radius": report.spectral_radius,
        "born_series_converges": report.spectral_radius < 1.0,
        "solve_defect": state.defect,
    }
    return results, diagnostics, table


def _run_scatter_separable(args: dict, tol: ToleranceConfig):
    model = SeparableModel(coupling=args["coupling"], beta=args["beta"], mass=args["mass"])
    k, born_order = args["k"], args["born_order"]
    exact = separable_tmatrix(model, k, tol=tol)
    residual = optical_theorem_residual(model, k, tol=tol)
    born = separable_born_amplitude(model, k, order=born_order)
    born_residual = optical_theorem_residual(model, k, born_order=born_order, tol=tol)
    results = {
        "amplitude": exact,
        "optical_residual": residual,
        "born_order": born_order,
        "born_amplitude": born,
        "born_optical_residual": born_residual,
        "born_error": abs(exact - born),
    }
    return results, {}, Table(k=[k], amplitude=[exact], optical_residual=[residual])


def _flatten_row(param: str, value, results: dict) -> dict:
    """One sweep row: the swept value, then the scalar results by column name."""
    row = {param: value}
    for key, item in results.items():
        if isinstance(item, bool) or key == param:
            continue
        if isinstance(item, (int, float)):
            row[key] = item
        elif isinstance(item, complex):
            row[f"{key}_re"], row[f"{key}_im"] = item.real, item.imag
    return row


# What main reads from a parsed command line; a handler reads the rest.
_JOB_KEYS = ("command", "handler", "output", "csv", "tol")


def _parse_job(parser: argparse.ArgumentParser, argv) -> tuple[list, dict]:
    """The values of _JOB_KEYS, in order, and the arguments the handler reads."""
    args = vars(parser.parse_args(argv))
    return [args.pop(key) for key in _JOB_KEYS], args


def _flag_options(parser: argparse.ArgumentParser) -> dict:
    """Template key -> option string of every flag a command's handler reads:
    the dests of its flags and, for a command with modes, every mode's flags,
    with the mode itself mapped to None (a positional word). The common flags
    are left out, because a sweep runs each row with its own."""
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            options[action.dest] = None
            for sub in action.choices.values():
                options.update(_flag_options(sub))
        elif not isinstance(action, argparse._HelpAction) and action.dest not in _JOB_KEYS:
            options[action.dest] = action.option_strings[0]
    return options


def _row_argv(command: str, options: dict, row: dict) -> list[str]:
    """The command line a sweep row stands for: the command, its mode word,
    then one item per key. true is the bare flag, false and null leave the
    flag out, and any other value is "--flag=value", whose "=" keeps a value
    such as -1e-3 or --x from reading as an option string."""
    words, flags = [command], []
    for key, value in row.items():
        option = options[key]
        if value is None or value is False:
            continue
        if option is None:
            word = str(value)
            if word.startswith("-"):  # would parse as an option, such as -h
                raise InputError(f"sweep key {key!r} must be a mode of {command!r}, got {value!r}")
            words.append(word)
        else:
            flags.append(option if value is True else f"{option}={value}")
    return words + flags


def _run_sweep(args: dict, tol: ToleranceConfig):
    template_path, param, values = args["template"], args["param"], args["values"]
    template = _io.load_json_file(template_path)
    if not isinstance(template, dict) or "command" not in template:
        raise InputError(f'{template_path}: expected an object with a "command" key')
    command = template["command"]
    if not isinstance(command, str):
        raise InputError(f'{template_path}: "command" must be a string, got {command!r}')
    if command == "sweep":
        raise InputError("sweep templates cannot nest another sweep")
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if command not in commands:
        raise InputError(f"{template_path}: unknown command {command!r}")
    base = {key: val for key, val in template.items() if key != "command"}
    # only a flag can stand in a row's command line
    options = _flag_options(commands[command])
    unknown = [key for key in [*base, param] if key not in options]
    if unknown:
        raise InputError(
            f"sweep key {unknown[0]!r} is not a flag of {command!r}; expected one of {sorted(options)}"
        )
    entries = []
    rows = []
    for value in values:
        try:
            (_, handler, *_), job = _parse_job(parser, _row_argv(command, options, {**base, param: value}))
        except SystemExit:  # the parser has printed its usage and the offending flag
            raise InputError(
                f"{template_path}: the row {param}={value!r} is not a valid {command!r} command line"
            ) from None
        sub_results, _, _ = handler(job, tol)
        entries.append({"value": value, "results": sub_results})
        rows.append(_flatten_row(param, value, sub_results))
    # Object columns keep each value's own type: --values 1 1.5 prints 1 and 1.5.
    table = Table(**{name: np.array([row[name] for row in rows], dtype=object) for name in rows[0]})
    results = {"command": command, "param": param, "rows": entries}
    diagnostics = {"row_count": len(entries)}
    return results, diagnostics, table


# Orchestration ---------------------------------------------------------------


def _write_text(path: str | None, text: str) -> None:
    """Write a report or table to the named file, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _finite_float(text: str) -> float:
    """A float flag; nan and inf, which no report can carry, exit 1 here."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> ToleranceConfig:
    """--tol-zero; a tolerance ToleranceConfig refuses is a flag problem (exit 1)."""
    try:
        return ToleranceConfig(tol_zero=_finite_float(text))
    except InvalidArgument as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_scalar(text: str):
    """A --values entry: an int, else a finite float, else the string itself."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        float(text)
    except ValueError:
        return text
    return _finite_float(text)


_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this front door reserves 2 for
    domain errors, so flag problems exit 1 instead. A leading minus followed
    by a number, exponent or not (-1e-3, -.5e1, -inf), is a value, not an
    option string; the subcommand parsers inherit both rules."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, handler) -> None:
    """The flags that main, not the handler, reads; and the handler itself."""
    p.set_defaults(handler=handler)
    p.add_argument("--output", metavar="FILE", help="write the JSON report (or error payload) here instead of stdout")
    p.add_argument("--csv", metavar="FILE", help="also write the CSV table here")
    p.add_argument("--tol-zero", type=_tolerance, default=DEFAULT_TOLS, dest="tol",
                   help="override the vanishing-amplitude threshold")


def _add_observable(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--observable", metavar="FILE", help="JSON matrix, Hermitian")
    g.add_argument("--identity", action="store_true", help="use the identity observable")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ggphase",
        description="Geometric phases of state chains and curves, and the "
        "measurement, perturbation, and scattering settings where they appear. "
        "All angles are radians in (-pi, pi]; every float is printed with 17 "
        "significant digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "phase",
        help="cyclic chain phase of N >= 3 states",
        description="Chain phase of the states in --states under the observable. "
        "CSV columns: value, min_link_modulus, chain_length.",
    )
    p.add_argument("--states", required=True, metavar="FILE",
                   help="JSON array of state vectors (complex as {re, im})")
    _add_observable(p)
    _add_common(p, _run_phase)

    p = sub.add_parser(
        "curve",
        help="continuous phase and sampled connection of a discretized curve",
        description="Curve phase (endpoint term plus trapezoid connection integral). "
        "CSV columns: s, a_o (the sampled connection).",
    )
    p.add_argument("--curve", required=True, metavar="FILE",
                   help='JSON object {"params": [...], "states": [[{re, im}, ...], ...]}')
    _add_observable(p)
    _add_common(p, _run_curve)

    p = sub.add_parser(
        "null-curve",
        help="construct the null curve between two states and verify its nullity",
        description="Builds the straight-line null curve from --a to --b, then "
        "reports its (ideally zero) curve phase and its connection integral. "
        "CSV columns: s, a_o.",
    )
    p.add_argument("--a", required=True, metavar="FILE", help="JSON state vector")
    p.add_argument("--b", required=True, metavar="FILE", help="JSON state vector")
    _add_observable(p)
    p.add_argument("--samples", type=int, default=1001, help="number of curve samples, at least 3 (default 1001)")
    p.add_argument("--tau", type=_finite_float, default=1.0, help="parameter length (default 1)")
    _add_common(p, _run_null_curve)

    p = sub.add_parser(
        "cycle",
        help="three-step projective-measurement cycle amplitude",
        description="Cycle amplitude under exp(-i epsilon H) steps and the phase "
        "left after removing the kinematic factor. CSV columns: epsilon, "
        "extracted_phase.",
    )
    p.add_argument("--h", required=True, metavar="FILE", help="JSON Hermitian matrix")
    p.add_argument("--epsilon", required=True, type=_finite_float, help="time step per projection")
    p.add_argument("--basis", metavar="FILE",
                   help="JSON array of 3 orthonormal states (default: first three axes)")
    _add_common(p, _run_cycle)

    p = sub.add_parser(
        "two-level",
        help="closed-form two-level chain phase",
        description="Phase of the chain (|0>, cos(theta/2)|0> + e^{i phi} "
        "sin(theta/2)|1>, |1>) for the swap (x) or hadamard observable. "
        "CSV columns: theta, phi, phase.",
    )
    p.add_argument("--kind", required=True, choices=["x", "hadamard"])
    p.add_argument("--theta", required=True, type=_finite_float, help="polar angle in [0, 2*pi]")
    p.add_argument("--phi", required=True, type=_finite_float, help="azimuth in (-pi, pi]")
    _add_common(p, _run_two_level)

    p = sub.add_parser(
        "perturb",
        help="energy-shift series and triple-product phase table",
        description="Third-order stationary shift of one level plus the table of "
        "closed matrix-element triples. CSV columns: k, l, modulus, gamma_v, "
        "denominator.",
    )
    p.add_argument("--h0", required=True, metavar="FILE",
                   help="JSON array of ascending level energies")
    p.add_argument("--v", required=True, metavar="FILE", help="JSON Hermitian matrix")
    p.add_argument("--level", required=True, type=int, help="level index n")
    p.add_argument("--lambda", required=True, type=_finite_float, dest="coupling",
                   help="perturbation coupling strength")
    _add_common(p, _run_perturb)

    p = sub.add_parser(
        "scatter",
        help="Born terms on a momentum grid, or the exact separable amplitude",
        description="Grid mode solves the finite scattering problem exactly and "
        "tabulates triple-product phases (CSV columns: p, q, modulus, gamma_v, "
        "denominator_re, denominator_im). Separable mode evaluates the exact "
        "rank-1 amplitude and its optical-theorem residual (CSV columns: k, "
        "amplitude_re, amplitude_im, optical_residual).",
    )
    ssub = p.add_subparsers(dest="mode", required=True, metavar="mode")
    pg = ssub.add_parser("grid", help="finite momentum-grid model")
    pg.add_argument("--model", required=True, metavar="FILE",
                    help='JSON {"momenta": [{"label", "energy"}, ...], "mass", "epsilon", "V"}')
    pg.add_argument("--incoming", required=True,
                    help="incoming momentum: a grid label or an integer index")
    _add_common(pg, _run_scatter_grid)
    ps = ssub.add_parser("separable", help="rank-1 separable continuum model")
    ps.add_argument("--beta", required=True, type=_finite_float, help="form-factor range (> 0)")
    ps.add_argument("--coupling", required=True, type=_finite_float, help="potential strength")
    ps.add_argument("--mass", required=True, type=_finite_float, help="particle mass (> 0)")
    ps.add_argument("--k", required=True, type=_finite_float, help="on-shell momentum (> 0)")
    ps.add_argument("--born-order", type=int, default=2, dest="born_order",
                    help="truncation order of the comparison Born series (default 2)")
    _add_common(ps, _run_scatter_separable)

    p = sub.add_parser(
        "sweep",
        help="run a template job across a list of parameter values",
        description="Loads a JSON job template ({\"command\": ..., flag: value, ...}), "
        "replaces the named parameter with each value in turn, and collects one "
        "row per value. CSV columns: the swept parameter, then the scalar "
        "results of the underlying command.",
    )
    p.add_argument("--template", required=True, metavar="FILE", help="JSON job template")
    p.add_argument("--param", required=True, help="template key to sweep")
    p.add_argument("--values", required=True, nargs="+", type=_parse_scalar,
                   help="values to substitute (parsed as int, float, or string)")
    _add_common(p, _run_sweep)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    (command, handler, output, csv, tol), args = _parse_job(_build_parser(), argv)
    try:
        try:
            start = time.perf_counter()
            results, diagnostics, table = handler(args, tol)
            report = {
                "command": command,
                "args": args,
                "results": results,
                "diagnostics": diagnostics,
                "wall_time_s": time.perf_counter() - start,
            }
            _write_text(output, _io.emit_json(report))
            if csv:
                _write_text(csv, _io.write_csv_text(table))
        except DomainError as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            for attr in ("link_index", "sample_index"):
                value = getattr(exc, attr, None)
                if value is not None:
                    error[attr] = value
            _write_text(output, _io.emit_json({"command": command, "args": args, "error": error}))
            return 2
    except (InputError, InvalidArgument) as exc:
        sys.stderr.write(f"ggphase: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
