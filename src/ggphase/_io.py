"""File formats shared by the CLI: JSON with complex scalars encoded as
{"re": x, "im": y} objects and every float printed with 17 significant
digits (so a report re-parses to bit-identical values), plus flat CSV tables.
A report Table's JSON rows and CSV lines (a complex column as <name>_re and
<name>_im) join the same cells; a non-finite value is named, e.g. phase_terms.modulus[17].

A well-formed JSON array is read in one pass (complex_rows): rows that are
lists of one non-zero length, and elements that are a bare number or a dict
with exactly the keys "re" and "im", where every value's type is int or float
(so a bool or a numeric string is refused). Anything else falls back to the
located parsers, which name the first bad element, e.g. c.json.states[12][3].im.

Parse failures raise InputError, which the CLI maps to exit status 1; a
report value that is not finite raises Overflow, a domain error (exit 2).
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import Overflow

__all__ = [
    "InputError",
    "Table",
    "emit_json",
    "write_csv_text",
    "load_json_file",
    "complex_rows",
    "parse_complex",
    "parse_vector",
    "parse_matrix",
    "parse_real",
    "parse_real_list",
]


class InputError(Exception):
    """A job input failed to load or parse (I/O problem, not a domain one)."""


def _float_text(x: float) -> str:
    """A finite float with 17 significant digits, which round-trip IEEE
    doubles exactly; an integral value prints as "1.0", not "1"."""
    text = f"{x:.17g}"
    return text if "." in text or "e" in text else text + ".0"


def _scalar(value, where: str) -> str:
    """A bool, integer, float or string as report text; JSON quotes a string."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise Overflow(f"reports must be finite, but {where} is {value}")
        return _float_text(float(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} at {where}")


def _column_texts(col: np.ndarray, where: str) -> list[str]:
    """One column's cells as _scalar gives them: a float column is checked for
    finiteness at once, and a numeric one needs no per-cell dispatch."""
    if col.dtype.kind == "f":
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            _scalar(col[bad[0]], f"{where}[{bad[0]}]")  # raises, naming the row
        return list(map(_float_text, col.tolist()))
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    return [_scalar(v, f"{where}[{i}]") for i, v in enumerate(col.tolist())]


class Table:
    """One report table: named, equal-length numpy columns, given once. In
    JSON it is an array of row objects, in CSV a header and one line per row;
    a complex column is a {"re", "im"} object there and <name>_re, <name>_im here."""

    def __init__(self, **columns):
        self.columns = {name: np.asarray(col) for name, col in columns.items()}
        if len({col.shape for col in self.columns.values()}) > 1:
            raise ValueError("table columns must have equal length")
        self._cells: dict | None = None

    def cells(self, where: str) -> dict:
        """Cell strings by (column, part "" or "re" or "im"), formatted at the
        first call; where names the table in a non-finite value's error."""
        if self._cells is None:
            cells = {}
            for name, col in self.columns.items():
                parts = {"re": col.real, "im": col.imag} if col.dtype.kind == "c" else {"": col}
                for part, values in parts.items():
                    cells[name, part] = _column_texts(values, f"{where}.{name}" + (part and f".{part}"))
            self._cells = cells
        return self._cells

    def _json(self, indent: int, where: str) -> str:
        """The rows as a JSON array of objects, every row from one template."""
        cells = self.cells(where)
        pad, row_pad, pad2 = ("  " * (indent + n) for n in range(3))
        fields, columns = [], []
        for (name, part), texts in cells.items():
            key = json.dumps(name).replace("%", "%%")
            fields.append({"": f"{pad2}{key}: %s", "re": f'{pad2}{key}: {{\n{pad2}  "re": %s',
                           "im": f'{pad2}  "im": %s\n{pad2}}}'}[part])
            if self.columns[name].dtype == object:
                texts = [json.dumps(t) if isinstance(v, str) else t
                         for v, t in zip(self.columns[name].tolist(), texts)]
            columns.append(texts)
        template = f"{row_pad}{{\n" + ",\n".join(fields) + f"\n{row_pad}}}"
        rows = [template % row for row in zip(*columns)]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]" if rows else "[]"


def _emit(obj, indent: int, out: list, where: str) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit({"re": obj.real, "im": obj.imag}, indent, out, where)
    elif isinstance(obj, Table):
        out.append(obj._json(indent, where))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for pos, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key).__name__}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(value, indent + 1, out, f"{where}.{key}" if where else key)
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
            _emit(value, indent + 1, out, f"{where}[{pos}]")
            out.append(",\n" if pos < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj, where))


def emit_json(obj) -> str:
    """Deterministic pretty-printed JSON text for a report object."""
    out: list = []
    _emit(obj, 0, out, "")
    out.append("\n")
    return "".join(out)


def _csv_field(text: str) -> str:
    """A header name or string cell by RFC 4180's minimal rule: quoted, its
    quotes doubled, where it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv_text(table: Table) -> str:
    """CSV text of a table, joined from the same cells as its JSON rows."""
    cells = table.cells("csv")
    header = ",".join(_csv_field(f"{name}_{part}" if part else name) for name, part in cells)
    columns = [list(map(_csv_field, texts)) if table.columns[name].dtype == object else texts
               for (name, _), texts in cells.items()]
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def load_json_file(path: str):
    """Parse a UTF-8 JSON file; a path that cannot be read and a file that is
    not JSON each raise InputError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate in the path
        shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in path)
        raise InputError(f"cannot read {shown}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, JSONDecodeError, or an integer past Python's digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


_NUMBER_TYPES = frozenset({int, float})


def complex_rows(obj) -> np.ndarray | None:
    """A JSON array of equal-length, non-empty rows of complex scalars as one
    (rows, width) complex matrix, read in one pass without locating anything;
    None for any other input, which the located parsers then reject by name."""
    if type(obj) is not list or not obj or type(obj[0]) is not list:
        return None
    width = len(obj[0])
    if not width or any(type(row) is not list or len(row) != width for row in obj):
        return None
    elems = list(chain.from_iterable(obj))
    try:
        re = [x["re"] if type(x) is dict and len(x) == 2 else x for x in elems]
        im = [x["im"] if type(x) is dict and len(x) == 2 else 0 for x in elems]
        if not (set(map(type, re)) | set(map(type, im))) <= _NUMBER_TYPES:
            return None
        out = np.empty((len(obj), width), dtype=np.complex128)
        out.real = np.array(re, dtype=np.float64).reshape(out.shape)
        out.imag = np.array(im, dtype=np.float64).reshape(out.shape)
    except (KeyError, OverflowError):  # a dict without "re" or "im"; an integer past the doubles
        return None
    return out


def _double(x, where: str) -> float:
    """float(x) for a JSON int or float; an int beyond the double range is refused."""
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"{where}: integer too large for a double") from None


def parse_real(obj, where: str) -> float:
    """A JSON number (not a boolean) as a float."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InputError(f"{where}: expected a real number, got {obj!r}")
    return _double(obj, where)


def parse_complex(obj, where: str) -> complex:
    """A JSON scalar as complex: a bare number or a {"re", "im"} object."""
    if isinstance(obj, bool):
        raise InputError(f"{where}: expected a number, got a boolean")
    if isinstance(obj, (int, float)):
        return complex(_double(obj, where), 0.0)
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        re, im = obj["re"], obj["im"]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            return complex(_double(re, f"{where}.re"), _double(im, f"{where}.im"))
    raise InputError(f'{where}: expected a number or {{"re": x, "im": y}}, got {obj!r}')


def parse_vector(obj, where: str) -> np.ndarray:
    """A JSON array of complex scalars as one complex vector."""
    rows = complex_rows([obj])
    if rows is not None:
        return rows[0]
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array")
    return np.array(
        [parse_complex(x, f"{where}[{i}]") for i, x in enumerate(obj)],
        dtype=np.complex128,
    )


def parse_matrix(obj, where: str) -> np.ndarray:
    """A JSON array of equal-length rows as one complex matrix."""
    rows = complex_rows(obj)
    if rows is not None:
        return rows
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array of rows")
    rows = [parse_vector(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise InputError(f"{where}: rows have unequal lengths")
    return np.stack(rows)


def parse_real_list(obj, where: str) -> np.ndarray:
    """A JSON array of real numbers."""
    if type(obj) is list and obj and set(map(type, obj)) <= _NUMBER_TYPES:
        try:
            return np.array(obj, dtype=np.float64)
        except OverflowError:  # an integer past the doubles: named below
            pass
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where}: expected a non-empty array")
    values = [parse_real(x, f"{where}[{i}]") for i, x in enumerate(obj)]
    return np.asarray(values, dtype=np.float64)
