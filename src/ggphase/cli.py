"""Batch command-line front door: one declarative job per invocation, files
in, a deterministic JSON report (and optional CSV table) out.

``main`` times the subcommand's handler, then writes the report, or the error
payload of a domain error, by one path: to --output, or to stdout without it.
Exit status contract: 0 on success, 2 when a typed domain error (or an
operation-level ValueError) says the requested quantity does not exist, 1 on
I/O or parse failures, including bad flags. Reports print every float with
17 significant digits (integral ones as "1.0"), so identical inputs produce
byte-identical reports except for the wall_time_s field. All angles are
radians in (-pi, pi].
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import _io
from ._io import InputError
from .curve import ParamCurve, _connection, _curve_phase, _trapezoid, o_null_curve
from .dynamics import TwoLevelParams, projective_cycle_amplitude, two_level_phase
from .errors import DomainError
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
    _green_diagonal,
    born_forward_amplitude,
    kernel_condition_number,
    lippmann_schwinger_solve,
    optical_theorem_residual,
    separable_born_amplitude,
    separable_tmatrix,
    triple_product_phases,
)

__all__ = ["main"]


# Input loading ---------------------------------------------------------------


def _need(args: dict, key: str):
    value = args.get(key)
    if value is None:
        raise InputError(f"missing required argument {key!r}")
    return value


def _as_float(args: dict, key: str) -> float:
    value = _need(args, key)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"argument {key!r} must be a number, got {value!r}") from exc


def _as_int(args: dict, key: str, default: int | None = None) -> int:
    value = args.get(key)
    if value is None:
        if default is None:
            raise InputError(f"missing required argument {key!r}")
        return default
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"argument {key!r} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"argument {key!r} must be an integer, got {value!r}") from exc


def _state_from_file(path: str) -> StateVector:
    data = _io.load_json_file(path)
    try:
        return StateVector(_io.parse_vector(data, path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _states_from_file(path: str) -> list[StateVector]:
    data = _io.load_json_file(path)
    if not isinstance(data, list):
        raise InputError(f"{path}: expected an array of state vectors")
    try:
        return [
            StateVector(_io.parse_vector(row, f"{path}[{i}]"))
            for i, row in enumerate(data)
        ]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _observable_from_file(path: str, tol: ToleranceConfig) -> Observable:
    data = _io.load_json_file(path)
    try:
        return Observable(_io.parse_matrix(data, path), tol=tol)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _resolve_observable(args: dict, tol: ToleranceConfig) -> Observable | None:
    identity = bool(args.get("identity"))
    path = args.get("observable")
    if identity and path:
        raise InputError("--identity and --observable are mutually exclusive")
    if not identity and not path:
        raise InputError("one of --observable or --identity is required")
    return None if identity else _observable_from_file(path, tol)


def _curve_from_file(path: str, tol: ToleranceConfig) -> ParamCurve:
    data = _io.load_json_file(path)
    if not isinstance(data, dict) or set(data) != {"params", "states"}:
        raise InputError(f'{path}: expected an object with keys "params" and "states"')
    params = _io.parse_real_list(data["params"], f"{path}.params")
    states = _io.parse_matrix(data["states"], f"{path}.states")
    try:
        return ParamCurve(params, states, tol=tol)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


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
    try:
        potential = Observable(_io.parse_matrix(data["V"], f"{path}.V"), tol=tol)
        return GridModel(labels, energies, mass, potential, epsilon)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


# Command handlers ------------------------------------------------------------


def _run_phase(args: dict, tol: ToleranceConfig):
    states = _states_from_file(_need(args, "states"))
    obs = _resolve_observable(args, tol)
    res = generalized_phase_chain(states, obs, tol=tol)
    results = {
        "value": res.value,
        "min_link_modulus": res.min_link_modulus,
        "chain_length": res.chain_length,
    }
    header = ["value", "min_link_modulus", "chain_length"]
    return results, {}, header, [[res.value, res.min_link_modulus, res.chain_length]]


def _connection_csv(samples) -> tuple[list, list]:
    header = ["s", "a_o"]
    rows = [[float(s), float(v)] for s, v in zip(samples.params, samples.values)]
    return header, rows


def _run_curve(args: dict, tol: ToleranceConfig):
    curve = _curve_from_file(_need(args, "curve"), tol)
    obs = _resolve_observable(args, tol)
    connection = _connection(curve, obs, tol)
    samples = connection[0]
    res = _curve_phase(curve, obs, tol, connection)
    results = {
        "value": res.value,
        "min_link_modulus": res.min_link_modulus,
        "sample_count": curve.sample_count,
    }
    diagnostics = {
        "connection_integral": _trapezoid(samples.values, samples.params),
        "extrapolated_samples": list(samples.extrapolated),
    }
    header, rows = _connection_csv(samples)
    return results, diagnostics, header, rows


def _run_null_curve(args: dict, tol: ToleranceConfig):
    a = _state_from_file(_need(args, "a"))
    b = _state_from_file(_need(args, "b"))
    obs = _resolve_observable(args, tol)
    samples_count = _as_int(args, "samples", default=1001)
    tau = 1.0 if args.get("tau") is None else _as_float(args, "tau")
    curve = o_null_curve(a, b, obs, tau=tau, M=samples_count, tol=tol)
    connection = _connection(curve, obs, tol)
    samples = connection[0]
    res = _curve_phase(curve, obs, tol, connection)
    expected = principal_arg(matrix_element(a, obs, b) / b.norm_sq)
    results = {
        "curve_phase": res.value,
        "connection_integral": _trapezoid(samples.values, samples.params),
        "expected_integral": expected,
        "sample_count": curve.sample_count,
    }
    diagnostics = {
        "nullity_residual": abs(res.value),
        "min_link_modulus": res.min_link_modulus,
        "extrapolated_samples": list(samples.extrapolated),
    }
    header, rows = _connection_csv(samples)
    return results, diagnostics, header, rows


def _run_cycle(args: dict, tol: ToleranceConfig):
    h = _observable_from_file(_need(args, "h"), tol)
    if args.get("basis"):
        basis = _states_from_file(args["basis"])
        if len(basis) != 3:
            raise InputError(f"basis file must hold exactly 3 states, got {len(basis)}")
    else:
        if h.dim < 3:
            raise InputError("the default basis needs dim >= 3; pass --basis for dim-2 h")
        basis = [StateVector.basis_vector(h.dim, k) for k in range(3)]
    epsilon = _as_float(args, "epsilon")
    res = projective_cycle_amplitude(h, basis, epsilon, tol=tol)
    stack = [s.components for s in basis]
    limit = principal_arg(
        np.vdot(stack[0], h.entries @ stack[2])
        * np.vdot(stack[2], h.entries @ stack[1])
        * np.vdot(stack[1], h.entries @ stack[0])
    )
    results = {
        "amplitude": _io.complex_payload(res.amplitude),
        "extracted_phase": res.extracted_phase,
        "epsilon": res.epsilon,
    }
    diagnostics = {
        "limit_phase": limit,
        "limit_gap": wrapped_distance(res.extracted_phase, limit),
    }
    header = ["epsilon", "extracted_phase"]
    return results, diagnostics, header, [[res.epsilon, res.extracted_phase]]


def _run_two_level(args: dict, tol: ToleranceConfig):
    kind = str(_need(args, "kind"))
    params = TwoLevelParams(_as_float(args, "theta"), _as_float(args, "phi"))
    value = two_level_phase(kind, params, tol=tol)
    results = {"kind": kind, "theta": params.theta, "phi": params.phi, "phase": value}
    header = ["theta", "phi", "phase"]
    return results, {}, header, [[params.theta, params.phi, value]]


def _column_rows(*columns: np.ndarray) -> list[tuple]:
    """Table columns as Python row tuples, converted once for both JSON and CSV."""
    return list(zip(*(col.tolist() for col in columns)))


def _run_perturb(args: dict, tol: ToleranceConfig):
    h0_path = _need(args, "h0")
    levels = _io.parse_real_list(_io.load_json_file(h0_path), h0_path)
    system = EigenSystem.standard(levels)
    potential = _observable_from_file(_need(args, "v"), tol)
    n = _as_int(args, "level")
    coupling = _as_float(args, "coupling")
    shift = energy_shift(system, potential, n, coupling)
    table = third_order_phase_terms(system, potential, n, tol=tol)
    rows = _column_rows(table.k, table.l, table.modulus, table.gamma_v, table.denominator)
    results = {
        "shift": {
            "order1": shift.order1,
            "order2": shift.order2,
            "order3": shift.order3,
            "coupling": shift.coupling,
            "total": shift.total,
        },
        "phase_terms": [
            {"k": k, "l": l, "modulus": modulus, "gamma_v": gamma, "denominator": den}
            for k, l, modulus, gamma, den in rows
        ],
    }
    diagnostics = {"level_count": system.level_count, "term_count": len(table)}
    header = ["k", "l", "modulus", "gamma_v", "denominator"]
    return results, diagnostics, header, rows


def _run_scatter(args: dict, tol: ToleranceConfig):
    mode = _need(args, "mode")
    if mode == "grid":
        return _run_scatter_grid(args, tol)
    if mode == "separable":
        return _run_scatter_separable(args, tol)
    raise InputError(f"unknown scatter mode {mode!r}; expected grid or separable")


def _incoming_index(model: GridModel, raw) -> int:
    text = str(raw)
    if text in model.labels:
        return model.index_of(text)
    try:
        index = int(text)
    except ValueError:
        raise InputError(
            f"--incoming {text!r} is neither a grid label nor an integer index"
        ) from None
    if not 0 <= index < model.size:
        raise InputError(f"--incoming index {index} out of range for grid size {model.size}")
    return index


def _run_scatter_grid(args: dict, tol: ToleranceConfig):
    model = _grid_model_from_file(_need(args, "model"), tol)
    index = _incoming_index(model, _need(args, "incoming"))
    psi = lippmann_schwinger_solve(model, index, tol=tol)
    green = _green_diagonal(model, index)
    rhs = np.zeros(model.size, dtype=np.complex128)
    rhs[index] = 1.0
    defect = float(
        np.linalg.norm(psi.components - rhs - green * (model.V.entries @ psi.components))
    )
    report = born_forward_amplitude(model, index)
    table = triple_product_phases(model, index, tol=tol)
    den = table.denominator
    rows = _column_rows(table.k, table.l, table.modulus, table.gamma_v, den.real, den.imag)
    results = {
        "born": {
            "term0": _io.complex_payload(report.term0),
            "term1": _io.complex_payload(report.term1),
            "term2": _io.complex_payload(report.term2),
            "total": _io.complex_payload(report.total),
        },
        "phase_terms": [
            {
                "p": p,
                "q": q,
                "modulus": modulus,
                "gamma_v": gamma,
                "denominator": {"re": den_re, "im": den_im},
            }
            for p, q, modulus, gamma, den_re, den_im in rows
        ],
        "incoming": model.labels[index],
    }
    diagnostics = {
        "condition_number": kernel_condition_number(model, index),
        "spectral_radius": report.spectral_radius,
        "born_series_converges": report.spectral_radius < 1.0,
        "solve_defect": defect,
    }
    header = ["p", "q", "modulus", "gamma_v", "denominator_re", "denominator_im"]
    return results, diagnostics, header, rows


def _run_scatter_separable(args: dict, tol: ToleranceConfig):
    model = SeparableModel(
        coupling=_as_float(args, "coupling"),
        beta=_as_float(args, "beta"),
        mass=_as_float(args, "mass"),
    )
    k = _as_float(args, "k")
    born_order = _as_int(args, "born_order", default=2)
    exact = separable_tmatrix(model, k, tol=tol)
    residual = optical_theorem_residual(model, k, tol=tol)
    born = separable_born_amplitude(model, k, order=born_order)
    born_residual = optical_theorem_residual(model, k, born_order=born_order, tol=tol)
    results = {
        "amplitude": _io.complex_payload(exact),
        "optical_residual": residual,
        "born_order": born_order,
        "born_amplitude": _io.complex_payload(born),
        "born_optical_residual": born_residual,
        "born_error": abs(exact - born),
    }
    header = ["k", "amplitude_re", "amplitude_im", "optical_residual"]
    return results, {}, header, [[k, exact.real, exact.imag, residual]]


def _flatten_row(param: str, value, results: dict) -> tuple[list, list]:
    header, cells = [param], [value]
    for key, item in results.items():
        if isinstance(item, bool) or key == param:
            continue
        if isinstance(item, (int, float)):
            header.append(key)
            cells.append(item)
        elif isinstance(item, dict) and set(item) == {"re", "im"}:
            header.extend([f"{key}_re", f"{key}_im"])
            cells.extend([item["re"], item["im"]])
    return header, cells


def _run_sweep(args: dict, tol: ToleranceConfig):
    template_path = _need(args, "template")
    template = _io.load_json_file(template_path)
    if not isinstance(template, dict) or "command" not in template:
        raise InputError(f'{template_path}: expected an object with a "command" key')
    command = template["command"]
    if command == "sweep":
        raise InputError("sweep templates cannot nest another sweep")
    if command not in _HANDLERS:
        raise InputError(f"{template_path}: unknown command {command!r}")
    param = str(_need(args, "param"))
    values = _need(args, "values")
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError("--values needs at least one entry")
    base = {key: val for key, val in template.items() if key != "command"}
    entries = []
    header: list = []
    rows: list = []
    for value in values:
        sub_args = dict(base)
        sub_args[param] = value
        sub_results, _, _, _ = _HANDLERS[command](sub_args, tol)
        entries.append({"value": value, "results": sub_results})
        row_header, row = _flatten_row(param, value, sub_results)
        header = row_header
        rows.append(row)
    results = {"command": command, "param": param, "rows": entries}
    diagnostics = {"row_count": len(entries)}
    return results, diagnostics, header, rows


_HANDLERS = {
    "phase": _run_phase,
    "curve": _run_curve,
    "null-curve": _run_null_curve,
    "cycle": _run_cycle,
    "two-level": _run_two_level,
    "perturb": _run_perturb,
    "scatter": _run_scatter,
    "sweep": _run_sweep,
}


# Orchestration ---------------------------------------------------------------


def _tolerances(tol_zero: float | None) -> ToleranceConfig:
    if tol_zero is None:
        return DEFAULT_TOLS
    # A bad tolerance is a configuration problem (exit 1), not a domain
    # error, so the ValueError from ToleranceConfig is rewrapped.
    try:
        return ToleranceConfig(tol_zero=tol_zero)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


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


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this front door reserves 2 for
    domain errors, so flag problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="FILE", help="write the JSON report (or error payload) here instead of stdout")
    p.add_argument("--csv", metavar="FILE", help="also write the CSV table here")
    p.add_argument("--tol-zero", type=float, default=None, dest="tol_zero",
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
    _add_common(p)

    p = sub.add_parser(
        "curve",
        help="continuous phase and sampled connection of a discretized curve",
        description="Curve phase (endpoint term plus trapezoid connection integral). "
        "CSV columns: s, a_o (the sampled connection).",
    )
    p.add_argument("--curve", required=True, metavar="FILE",
                   help='JSON object {"params": [...], "states": [[{re, im}, ...], ...]}')
    _add_observable(p)
    _add_common(p)

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
    p.add_argument("--samples", type=int, default=1001, help="number of curve samples (default 1001)")
    p.add_argument("--tau", type=float, default=1.0, help="parameter length (default 1)")
    _add_common(p)

    p = sub.add_parser(
        "cycle",
        help="three-step projective-measurement cycle amplitude",
        description="Cycle amplitude under exp(-i epsilon H) steps and the phase "
        "left after removing the kinematic factor. CSV columns: epsilon, "
        "extracted_phase.",
    )
    p.add_argument("--h", required=True, metavar="FILE", help="JSON Hermitian matrix")
    p.add_argument("--epsilon", required=True, type=float, help="time step per projection")
    p.add_argument("--basis", metavar="FILE",
                   help="JSON array of 3 orthonormal states (default: first three axes)")
    _add_common(p)

    p = sub.add_parser(
        "two-level",
        help="closed-form two-level chain phase",
        description="Phase of the chain (|0>, cos(theta/2)|0> + e^{i phi} "
        "sin(theta/2)|1>, |1>) for the swap (x) or hadamard observable. "
        "CSV columns: theta, phi, phase.",
    )
    p.add_argument("--kind", required=True, choices=["x", "hadamard"])
    p.add_argument("--theta", required=True, type=float, help="polar angle in [0, 2*pi]")
    p.add_argument("--phi", required=True, type=float, help="azimuth in (-pi, pi]")
    _add_common(p)

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
    p.add_argument("--lambda", required=True, type=float, dest="coupling",
                   help="perturbation coupling strength")
    _add_common(p)

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
    _add_common(pg)
    ps = ssub.add_parser("separable", help="rank-1 separable continuum model")
    ps.add_argument("--beta", required=True, type=float, help="form-factor range (> 0)")
    ps.add_argument("--coupling", required=True, type=float, help="potential strength")
    ps.add_argument("--mass", required=True, type=float, help="particle mass (> 0)")
    ps.add_argument("--k", required=True, type=float, help="on-shell momentum (> 0)")
    ps.add_argument("--born-order", type=int, default=2, dest="born_order",
                    help="truncation order of the comparison Born series (default 2)")
    _add_common(ps)

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
    p.add_argument("--values", required=True, nargs="+",
                   help="values to substitute (parsed as int, float, or string)")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    args = vars(_build_parser().parse_args(argv))
    command, output, csv, tol_zero = (
        args.pop(key) for key in ("command", "output", "csv", "tol_zero")
    )
    if command == "sweep":
        args["values"] = [_parse_scalar(v) for v in args["values"]]
    try:
        tol = _tolerances(tol_zero)
        try:
            start = time.perf_counter()
            results, diagnostics, header, rows = _HANDLERS[command](args, tol)
            report = {
                "command": command,
                "args": args,
                "results": results,
                "diagnostics": diagnostics,
                "wall_time_s": time.perf_counter() - start,
            }
            _write_text(output, _io.emit_json(report))
            if csv:
                _write_text(csv, _io.write_csv_text(header, rows))
        except (DomainError, ValueError) as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            for attr in ("link_index", "sample_index"):
                value = getattr(exc, attr, None)
                if value is not None:
                    error[attr] = value
            _write_text(output, _io.emit_json({"command": command, "args": args, "error": error}))
            return 2
    except InputError as exc:
        sys.stderr.write(f"ggphase: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
