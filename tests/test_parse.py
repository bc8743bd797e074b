"""JSON array inputs: the one-pass readers in _io against the located parsers
of conftest, which read one element at a time and name the first bad one.

For every input the public parser and the oracle either return arrays of the
same shape and the same bytes, or both raise InputError with the same message.
A separate check proves that well-formed inputs never reach the located path,
so a one-pass reader that silently stopped firing would fail here too.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    located_matrix_oracle,
    located_real_list_oracle,
    located_vector_oracle,
)
from ggphase import _io
from ggphase._io import InputError, complex_rows, parse_matrix, parse_real_list, parse_vector
from ggphase.cli import main

PARSERS = [
    (parse_matrix, located_matrix_oracle),
    (parse_vector, located_vector_oracle),
    (parse_real_list, located_real_list_oracle),
]

SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
NUMBERS = (
    st.integers(min_value=-(10**400), max_value=10**400)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
)
LEAVES = st.none() | st.booleans() | NUMBERS | st.text(max_size=3)
KEYS = st.sampled_from(["re", "im", "x"])
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=12,
)
ELEMENTS = NUMBERS | st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS})


@st.composite
def near_valid_arrays(draw):
    """A well-formed matrix, vector or real list, often with one thing
    corrupted: an element, one value of an element, a key, or a row."""
    rows = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["matrix", "vector", "real list"]))
    if kind == "real list":
        values = [draw(NUMBERS) for _ in range(width)]
        if draw(st.booleans()):
            values[draw(st.integers(0, width - 1))] = draw(JSON_VALUES)
        return values
    matrix = [[draw(ELEMENTS) for _ in range(width)] for _ in range(rows)]
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, width - 1))
    corruption = draw(st.sampled_from(["none", "element", "value", "key", "row"]))
    if corruption == "element":
        matrix[i][j] = draw(JSON_VALUES)
    elif corruption == "value":
        matrix[i][j] = {"re": draw(NUMBERS), "im": draw(NUMBERS), draw(KEYS): draw(JSON_VALUES)}
    elif corruption == "key":
        element = {"re": draw(NUMBERS), "im": draw(NUMBERS), "x": 0}
        del element[draw(KEYS)]
        matrix[i][j] = element
    elif corruption == "row":
        matrix[i] = draw(st.lists(ELEMENTS, max_size=5) | JSON_VALUES)
    return matrix[0] if kind == "vector" else matrix


def assert_same_outcome(public, oracle, obj, where="c.json.states"):
    try:
        want = oracle(obj, where)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            public(obj, where)
        assert str(got.value) == str(exc)
        return
    got = public(obj, where)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(JSON_VALUES | near_valid_arrays())
@settings(max_examples=600, deadline=None)
def test_parsers_agree_with_the_located_oracle(obj):
    for public, oracle in PARSERS:
        assert_same_outcome(public, oracle, obj)


@pytest.mark.parametrize(
    ("obj", "message"),
    [
        ([[1, True]], "F.json[0][1]: expected a number, got a boolean"),
        ([[1, "1"]], "F.json[0][1]: expected a number or {\"re\": x, \"im\": y}, got '1'"),
        ([[{"re": 1, "im": 0, "x": 0}]], "F.json[0][0]: expected a number or {\"re\": x, \"im\": y}, got {'re': 1, 'im': 0, 'x': 0}"),
        ([[{"re": 1}]], "F.json[0][0]: expected a number or {\"re\": x, \"im\": y}, got {'re': 1}"),
        ([[1, 2], [3]], "F.json: rows have unequal lengths"),
        ([[1], []], "F.json[1]: expected a non-empty array"),
        ([[[1, 2]]], "F.json[0][0]: expected a number or {\"re\": x, \"im\": y}, got [1, 2]"),
        ([[1, 10**400]], "F.json[0][1]: integer too large for a double"),
        ([[None]], "F.json[0][0]: expected a number or {\"re\": x, \"im\": y}, got None"),
        ([[{"re": 1, "im": False}]], "F.json[0][0]: expected a number or {\"re\": x, \"im\": y}, got {'re': 1, 'im': False}"),
    ],
)
def test_malformed_matrix_names_its_element(obj, message):
    assert complex_rows(obj) is None
    with pytest.raises(InputError) as exc:
        parse_matrix(obj, "F.json")
    assert str(exc.value) == message


def test_reader_keeps_signed_zeros_and_integers_exactly():
    rows = complex_rows([[-0.0, {"re": 2**53 + 1, "im": -0.0}], [3, {"re": 0.5, "im": -(2**70)}]])
    want = np.array([[complex(-0.0, 0.0), complex(2.0**53, -0.0)], [3, complex(0.5, -(2.0**70))]])
    assert rows.tobytes() == want.tobytes()


@pytest.fixture
def parser_calls(monkeypatch):
    """Every call into the per-element parsers and the one-vector parser, by name."""
    calls = []
    for name in ("parse_complex", "parse_real", "parse_vector"):
        def counted(*args, _name=name, _parse=getattr(_io, name)):
            calls.append(_name)
            return _parse(*args)
        monkeypatch.setattr(_io, name, counted)
    return calls


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_well_formed_inputs_never_reach_the_located_path(parser_calls, tmp_path, capsys):
    rng = np.random.default_rng(3)
    z = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    states = [[{"re": v.real, "im": v.imag} for v in row] for row in z.tolist()]
    states[1][0] = 1  # a bare number is a complex scalar too
    obs = [[2, 0, {"re": 0.0, "im": 0.5}], [0, 1.5, 0], [{"re": 0.0, "im": -0.5}, 0, 1]]
    curve = write_json(tmp_path / "c.json", {"params": np.linspace(0, 1, 40).tolist(), "states": states})
    chain = write_json(tmp_path / "s.json", states[:5])
    matrix = write_json(tmp_path / "o.json", obs)
    h0 = write_json(tmp_path / "h0.json", [0, 0.5, 2])
    a, b = write_json(tmp_path / "a.json", states[0]), write_json(tmp_path / "b.json", states[1])
    jobs = [
        ["curve", "--curve", curve, "--observable", matrix],
        ["phase", "--states", chain, "--observable", matrix],
        ["perturb", "--h0", h0, "--v", matrix, "--level", "0", "--lambda", "0.1"],
        ["null-curve", "--a", a, "--b", b, "--observable", matrix, "--samples", "11"],
    ]
    for argv in jobs:
        assert main(argv) == 0, capsys.readouterr()
    # Whole arrays are read in one pass each, never row by row; only the two
    # single-vector files of null-curve go through parse_vector.
    assert parser_calls == ["parse_vector", "parse_vector"]
    # The counters are wired: one malformed element sends each parser down the located path.
    with pytest.raises(InputError):
        parse_matrix([[1, True]], "x")
    with pytest.raises(InputError):
        parse_real_list([0.5, "1"], "x")
    assert parser_calls[2:] == ["parse_vector", "parse_complex", "parse_complex", "parse_real", "parse_real"]
