"""Q(sqrt(R)) stays below the deciders: only the scalar, polynomial and
special-quartic layers (and the package's re-export) name ``QuadExt`` or
decide, by ``is_perfect_square``, when g needs it.  Deleting the extension
field then touches those modules only."""

import ast
from pathlib import Path

import cycquart

CONFINED = {"QuadExt", "is_perfect_square"}
ALLOWED = {"scalars.py", "unipoly.py", "quartic_rules.py", "__init__.py"}


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
    assert {path.name for path in sources} >= ALLOWED | {"decider.py", "cli.py"}
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
        "a = s.is_perfect_square(r)\n"
        "b = QuadExt(0, 1, r)\n"
        "c = 'QuadExt'\n"
    )
    kinds = [what for _, what in confined_names(ast.parse(source))]
    assert sorted(kinds) == ["QuadExt", "import QuadExt", "is_perfect_square"]
