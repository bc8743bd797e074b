"""Report emission: one Table of numpy columns, rendered as JSON rows and as
CSV lines from the same cell strings. Also the scalar parsers' refusal of
integers that no double can hold.

The references are independent of the column path: the generic recursive
JSON emitter, fed the same rows as plain dicts of numpy scalars, and
conftest.csv_text_oracle, a row-by-row CSV writer.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_text_oracle
from ggphase import Overflow
from ggphase._io import (
    InputError,
    Table,
    emit_json,
    load_json_file,
    parse_complex,
    parse_matrix,
    parse_real,
    parse_real_list,
    write_csv_text,
)

# Signed zero, integral floats on both sides of the 17-digit exponent switch,
# the smallest subnormal and the largest double.
EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e16, 1e17, 1e22, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
KINDS = ("int64", "float", "complex", "bool", "object")


@st.composite
def table_columns(draw) -> dict:
    """Equal-length columns of every kind a report table holds."""
    n = draw(st.integers(min_value=0, max_value=6))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True))

    def cells(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    columns = {}
    for name in names:
        kind = draw(st.sampled_from(KINDS))
        if kind == "int64":
            columns[name] = np.array(cells(INT64), dtype=np.int64)
        elif kind == "float":
            columns[name] = np.array(cells(FLOATS), dtype=np.float64)
        elif kind == "complex":
            col = np.empty(n, dtype=np.complex128)
            col.real, col.imag = cells(FLOATS), cells(FLOATS)
            columns[name] = col
        elif kind == "bool":
            columns[name] = np.array(cells(st.booleans()), dtype=bool)
        else:
            col = np.empty(n, dtype=object)
            col[:] = cells(INT64 | FLOATS | st.text(max_size=3))
            columns[name] = col
    return columns


def row_count(columns: dict) -> int:
    return len(next(iter(columns.values())))


@given(table_columns(), st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_json_rows_match_the_generic_emitter(columns, depth):
    rows = [{name: col[i] for name, col in columns.items()} for i in range(row_count(columns))]
    table_report, rows_report = {"t": Table(**columns)}, {"t": rows}
    for _ in range(depth):
        table_report, rows_report = {"r": table_report}, {"r": rows_report}
    assert emit_json(table_report) == emit_json(rows_report)


@given(table_columns())
@settings(max_examples=300, deadline=None)
def test_csv_matches_the_row_writer_and_shares_the_json_cells(columns):
    header, parts = [], []
    for name, col in columns.items():
        if col.dtype.kind == "c":
            header += [f"{name}_re", f"{name}_im"]
            parts += [col.real.tolist(), col.imag.tolist()]
        else:
            header.append(name)
            parts.append(col.tolist())
    table = Table(**columns)
    # The JSON rendering formats the cells; the CSV is then joined from them.
    emit_json({"t": table})
    text = write_csv_text(table)
    assert text == csv_text_oracle(header, list(zip(*parts)))


@given(table_columns())
@settings(max_examples=200, deadline=None)
def test_float_cells_reparse_bit_identically(columns):
    rows = json.loads(emit_json({"t": Table(**columns)}))["t"]
    for name, col in columns.items():
        if col.dtype.kind in "fc":
            for row, value in zip(rows, col.tolist()):
                cell = row[name]
                got = complex(cell["re"], cell["im"]) if col.dtype.kind == "c" else cell
                assert type(got) is type(value)
                assert got.real.hex() == value.real.hex() and got.imag.hex() == value.imag.hex()


def test_sweep_like_object_column_keeps_each_type():
    values = np.empty(4, dtype=object)
    values[:] = [1, 1.5, 2, "x"]
    table = Table(theta=values, phase=np.array([0.25, 0.5, 1.0, 2.0]))
    assert write_csv_text(table) == "theta,phase\n1,0.25\n1.5,0.5\n2,1.0\nx,2.0\n"
    assert [row["theta"] for row in json.loads(emit_json({"t": table}))["t"]] == [1, 1.5, 2, "x"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_cell_is_named_by_column_and_row(bad):
    def table():
        return Table(
            k=np.arange(3),
            modulus=np.array([1.0, 2.0, bad]),
            denominator=np.array([1.0, complex(0.0, bad), 2.0]),
        )

    with pytest.raises(Overflow, match=r"finite, but results\.phase_terms\.modulus\[2\] is"):
        emit_json({"results": {"phase_terms": table()}})
    with pytest.raises(Overflow, match=r"finite, but csv\.modulus\[2\] is"):
        write_csv_text(table())
    with pytest.raises(Overflow, match=r"finite, but t\.denominator\.im\[1\] is"):
        emit_json({"t": Table(denominator=table().columns["denominator"])})


def test_non_finite_scalar_is_named_by_key_path():
    with pytest.raises(Overflow, match=r"finite, but results\.rows\[1\]\.value is inf"):
        emit_json({"results": {"rows": [{"value": 1.0}, {"value": math.inf}]}})


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="equal length"):
        Table(a=np.zeros(2), b=np.zeros(3))


HUGE = 10**400


@pytest.mark.parametrize(
    ("parse", "obj", "where"),
    [
        (parse_real, HUGE, "x"),
        (parse_real, -HUGE, "x"),
        (parse_complex, HUGE, "x"),
        (parse_complex, {"re": HUGE, "im": 0}, "x.re"),
        (parse_complex, {"re": 0, "im": -HUGE}, "x.im"),
        (parse_real_list, [0.5, HUGE], "x[1]"),
        (parse_matrix, [[1, 2], [3, {"re": 1, "im": HUGE}]], "x[1][1].im"),
    ],
)
def test_integer_too_large_for_a_double_is_named(parse, obj, where):
    with pytest.raises(InputError) as exc:
        parse(obj, "x")
    assert str(exc.value) == f"{where}: integer too large for a double"


def test_largest_exact_integers_still_parse():
    assert parse_real(2**1023, "x") == 2.0**1023
    assert parse_complex({"re": -(2**53), "im": 3}, "x") == complex(-(2.0**53), 3.0)


@pytest.mark.parametrize(("path", "shown"), [("a\x00b", "a\\x00b"), ("a\ud800b", "a\\ud800b")])
def test_path_that_open_refuses_cannot_be_read(path, shown):
    # open() raises ValueError for a NUL byte and UnicodeEncodeError for a lone
    # surrogate: the path is unreadable, not bad JSON, and is printed escaped.
    with pytest.raises(InputError) as exc:
        load_json_file(path)
    assert str(exc.value).startswith(f"cannot read {shown}: ")
    assert "not valid JSON" not in str(exc.value)


def test_unreadable_and_malformed_files_keep_their_wording(tmp_path):
    missing, bad = tmp_path / "missing.json", tmp_path / "bad.json"
    bad.write_bytes(b"[1, 2")
    for path, prefix in ((missing, f"cannot read {missing}: "), (bad, f"{bad} is not valid JSON: ")):
        with pytest.raises(InputError) as exc:
            load_json_file(str(path))
        assert str(exc.value).startswith(prefix)
