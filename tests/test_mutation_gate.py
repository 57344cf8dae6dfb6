"""An in-process mutation gate for the structural decider.

Each ``<``, ``<=``, ``>`` and ``>=`` of ``decide_structural`` and of the two
rules it calls is flipped in turn (``<`` <-> ``<=``, ``>`` <-> ``>=``): the
function is recompiled with that one operator changed into a copy of its
module's namespace and patched in.  Every flip must change some verdict or
fired clause on a fixed set of forms, or be listed in ``EQUIVALENT`` with the
reason no input can tell it apart (DeMillo, Lipton & Sayward, *Computer*
11(4), 1978).  A surviving flip is killed by adding an input to the set,
never by weakening the comparison.
"""

import ast
import inspect
import itertools
import random
from fractions import Fraction as F

from cycquart import decider, quartic_rules
from cycquart.form import CyclicParams
from cycquart.harness import STRATA, stratum_sampler

from test_decider import BOUNDARY_PINS

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}

# each function under the gate: its module, the modules that call it by
# name (decide_structural reads decider.discriminant_rule), and how many
# comparisons it holds
TARGETS = {
    "_biquadratic_nonneg": (decider, (decider,), 6),
    "decide_structural": (decider, (decider,), 4),
    "discriminant_rule": (quartic_rules, (quartic_rules, decider), 4),
}

# discriminant_rule runs only with a0 > 0, a4 > 0 and R > 0, where
# tests/test_identities.py proves that D2 = 0 forces D3 < 0, and that D3 = 0
# forces D4*D2 <= 0 and is unreachable with D4 = 0
EQUIVALENT = {
    "discriminant_rule#2: d3 < 0": "it differs only at D4 > 0, D2 >= 0, D3 = 0, "
    "which cannot occur: D3 = 0 forces D2 <= 0 there, and D2 = 0 forces D3 < 0",
    "discriminant_rule#3: d3 < 0": "it differs only at D4 = D3 = 0, which cannot occur",
}


def comparisons(tree):
    """The single-operator <, <=, > and >= nodes of ``tree``, in source order."""
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and len(node.ops) == 1
             and type(node.ops[0]) in _FLIP]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def mutant(module, name, index):
    """``module.name`` with its ``index``-th comparison flipped, compiled
    into a copy of the module's namespace; and the comparison's source."""
    tree = ast.parse(inspect.getsource(getattr(module, name)))
    node = comparisons(tree)[index]
    label = f"{name}#{index}: {ast.unparse(node)}"
    node.ops = [_FLIP[type(node.ops[0])]()]
    namespace = dict(vars(module))
    exec(compile(tree, module.__file__, "exec"), namespace)
    return namespace[name], label


def fixed_set():
    """BOUNDARY_PINS, 200 draws of every stratum but f5_zero_near (whose
    ranking by the published f5 costs about 40 ms a draw), and the
    half-integer grid of [-1, 2]**4."""
    forms = [CyclicParams(*params) for params in BOUNDARY_PINS]
    for stratum in STRATA:
        if stratum != "f5_zero_near":
            forms += [stratum_sampler(stratum, random.Random(seed)) for seed in range(200)]
    halves = [F(i, 2) for i in range(-2, 5)]
    forms += [CyclicParams(*params) for params in itertools.product(halves, repeat=4)]
    return forms


def test_every_comparison_flip_in_the_structural_decider_is_killed_or_equivalent(monkeypatch):
    forms = fixed_set()
    assert len(forms) == len(BOUNDARY_PINS) + 200 * (len(STRATA) - 1) + 7**4

    def outcomes():
        return [(v.is_psd, v.fired_clause) for v in map(decider.decide_structural, forms)]

    reference = outcomes()
    survivors = []
    for name, (home, callers, count) in TARGETS.items():
        assert len(comparisons(ast.parse(inspect.getsource(getattr(home, name))))) == count, name
        for index in range(count):
            function, label = mutant(home, name, index)
            with monkeypatch.context() as patch:
                for module in callers:
                    patch.setattr(module, name, function)
                if outcomes() == reference:
                    survivors.append(label)
    assert sorted(survivors) == sorted(EQUIVALENT)
