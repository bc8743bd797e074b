"""File formats shared by the CLI: JSON with complex scalars encoded as
{"re": x, "im": y} objects and every float printed with 17 significant
digits (so a report re-parses to bit-identical values), plus flat CSV tables.

Parse failures raise InputError, which the CLI maps to exit status 1; typed
domain errors keep exit status 2 for themselves.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "InputError",
    "format_float",
    "complex_payload",
    "emit_json",
    "write_csv_text",
    "load_json_file",
    "parse_complex",
    "parse_vector",
    "parse_matrix",
    "parse_real",
    "parse_real_list",
]


class InputError(Exception):
    """A job input failed to load or parse (I/O problem, not a domain one)."""


def format_float(x: float) -> str:
    """A float as a JSON number with 17 significant digits.

    17 digits round-trip IEEE doubles exactly, so equal inputs produce
    byte-identical reports; integral values print as "1.0", not "1".
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"reports must be finite, got {x}")
    text = f"{x:.17g}"
    # An integral value keeps a fractional part so that it re-parses as a float.
    return text if "." in text or "e" in text else text + ".0"


def complex_payload(z: complex) -> dict:
    """A complex value as its JSON object form."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit(complex_payload(obj), indent, out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for pos, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key).__name__}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(value, indent + 1, out)
            out.append(",\n" if pos < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for pos, value in enumerate(items):
            out.append(inner)
            _emit(value, indent + 1, out)
            out.append(",\n" if pos < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(obj) -> str:
    """Deterministic pretty-printed JSON text for a report object."""
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    raise TypeError(f"cannot place {type(value).__name__} in a CSV cell")


def write_csv_text(header: list, rows: list) -> str:
    """CSV text with the same float formatting as the JSON reports."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def load_json_file(path: str):
    """Parse a JSON file, wrapping every failure mode in InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def parse_real(obj, where: str) -> float:
    """A JSON number (not a boolean) as a float."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InputError(f"{where}: expected a real number, got {obj!r}")
    return float(obj)


def parse_complex(obj, where: str) -> complex:
    """A JSON scalar as complex: a bare number or a {"re", "im"} object."""
    if isinstance(obj, bool):
        raise InputError(f"{where}: expected a number, got a boolean")
    if isinstance(obj, (int, float)):
        return complex(float(obj), 0.0)
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        re, im = obj["re"], obj["im"]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            return complex(float(re), float(im))
    raise InputError(f'{where}: expected a number or {{"re": x, "im": y}}, got {obj!r}')


def parse_vector(obj, where: str) -> np.ndarray:
    """A JSON array of complex scalars as one complex vector."""
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array")
    return np.array(
        [parse_complex(x, f"{where}[{i}]") for i, x in enumerate(obj)],
        dtype=np.complex128,
    )


def parse_matrix(obj, where: str) -> np.ndarray:
    """A JSON array of equal-length rows as one complex matrix."""
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array of rows")
    rows = [parse_vector(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise InputError(f"{where}: rows have unequal lengths")
    return np.stack(rows)


def parse_real_list(obj, where: str) -> np.ndarray:
    """A JSON array of real numbers."""
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array")
    values = [parse_real(x, f"{where}[{i}]") for i, x in enumerate(obj)]
    return np.asarray(values, dtype=np.float64)
