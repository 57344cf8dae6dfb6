"""No float anywhere in the package: every decision and every witness is
made in exact rational arithmetic, so the source holds no float literal,
no ``float(...)`` call, no transcendental from ``math`` and no rounding of
a float back to a rational."""

import ast
from pathlib import Path

import cycquart

FLOAT_MATH = {"sqrt", "acos", "cos", "sin", "pi", "exp", "log"}


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"
        elif isinstance(node, ast.Attribute):
            if node.attr == "limit_denominator":
                yield node.lineno, "limit_denominator"
            elif isinstance(node.value, ast.Name) and node.value.id == "math" and node.attr in FLOAT_MATH:
                yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def test_package_source_uses_no_float():
    sources = sorted(Path(cycquart.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in float_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_guard_sees_each_kind_of_float_use():
    source = (
        "import math\n"
        "from math import pi\n"
        "a = 0.5\n"
        "b = float(x)\n"
        "c = math.sqrt(2)\n"
        "d = F(e).limit_denominator(10)\n"
    )
    kinds = [what for _, what in float_uses(ast.parse(source))]
    assert kinds == [
        "from math import pi", "float literal 0.5", "float(...)", "math.sqrt",
        "limit_denominator",
    ]
