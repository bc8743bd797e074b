"""The README's Python examples run, and print what their comments say."""

import ast
import contextlib
import io
import math
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def comments(source: str) -> dict[int, str]:
    """Line number -> the text of that line's comment."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def assert_prints(got: str, want: str, where: str):
    """The same text once numbers and spacing are set aside, and the same
    numbers to 1e-12 relative, so a last-bit difference between numpy
    releases passes."""
    skeleton = [re.sub(r"\s+", "", NUMBER.sub("#", s)) for s in (got, want)]
    assert skeleton[0] == skeleton[1], f"{where}: printed {got!r}, the comment says {want!r}"
    for x, y in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert math.isclose(float(x), float(y), rel_tol=1e-12), f"{where}: printed {got!r}, the comment says {want!r}"


def test_python_examples_print_their_comments():
    # the blocks run in order in one namespace, as a reader would type them
    namespace = {}
    checked = 0
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for number, source in enumerate(blocks, 1):
        notes = comments(source)
        for stmt in ast.parse(source).body:
            code = compile(ast.Module([stmt], type_ignores=[]), f"README block {number}", "exec")
            call = stmt.value if isinstance(stmt, ast.Expr) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "print"):
                exec(code, namespace)
                continue
            where = f"README block {number}, line {stmt.end_lineno}"
            assert stmt.end_lineno in notes, f"{where}: a print without a comment of its output"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, namespace)
            assert_prints(out.getvalue().strip(), notes[stmt.end_lineno], where)
            checked += 1
    assert checked >= len(blocks)
