"""Q(sqrt(R)) stays below the deciders: only the scalar and polynomial
layers (and the package's re-export) name ``QuadExt`` or ``rational_sqrt``.
``scalars.sqrt_multiplier`` decides once whether a square root is rational
and writes its multiples; ``quartic_rules`` builds g and its chain through
it, and the deciders hand g's numbers to ``quartic_rules``.  Deleting the
extension field then touches those two modules only."""

import ast
from pathlib import Path

import cycquart

CONFINED = {"QuadExt", "rational_sqrt"}
ALLOWED = {"scalars.py", "unipoly.py", "__init__.py"}


def confined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CONFINED:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in CONFINED:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in CONFINED:
                    yield node.lineno, f"import {alias.name}"


def test_only_the_scalar_layers_name_quadext():
    sources = sorted(Path(cycquart.__file__).parent.glob("*.py"))
    assert {path.name for path in sources} >= ALLOWED | {"decider.py", "cli.py", "quartic_rules.py"}
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        if path.name not in ALLOWED
        for line, what in confined_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_guard_sees_each_kind_of_use():
    source = (
        "from .scalars import QuadExt, sgn\n"
        "import cycquart.scalars as s\n"
        "a = s.rational_sqrt(r)\n"
        "b = QuadExt(0, 1, r)\n"
        "c = 'QuadExt'\n"
    )
    kinds = [what for _, what in confined_names(ast.parse(source))]
    assert sorted(kinds) == ["QuadExt", "import QuadExt", "rational_sqrt"]
