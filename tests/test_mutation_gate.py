"""An in-process mutation gate for the structural decider.

Each ``<``, ``<=``, ``>`` and ``>=`` of ``decide_structural`` and of the two
rules it calls is flipped in turn (``<`` <-> ``<=``, ``>`` <-> ``>=``): the
function is recompiled with that one operator changed into a copy of its
module's namespace and patched in.  Every flip must change some verdict or
fired clause on a fixed set of forms, or be listed in ``EQUIVALENT`` with the
reason no input can tell it apart (DeMillo, Lipton & Sayward, *Computer*
11(4), 1978).  A surviving flip is killed by adding an input to the set,
never by weakening the comparison.  A second gate edits the helpers of the
Sturm oracle's integer path in ``unipoly`` in the same way, and checks the
oracle against the structural decider.
"""

import ast
import inspect
from fractions import Fraction as F

from cycquart import decider, quartic_rules, unipoly
from cycquart.form import CyclicParams, reduce_to_g
from cycquart.harness import STRATA

from test_decider import BOUNDARY_PINS, fixed_set
from test_form import is_perfect_square

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


# The integer core of the Sturm oracle (unipoly's Z[x] path): each mutant is
# one edit of the source of a helper, (function, text, replacement).  It is
# killed when decide_oracle, on the forms of the fixed set whose g is
# rational, disagrees with decide_structural or raises.
INTEGER_MUTANTS = {
    "_primitive: leading-coefficient sign": ("_primitive", "ints[0] < 0", "ints[0] > 0"),
    "_primitive: content division // -> /": ("_primitive", "a // content", "a / content"),
    "_primitive: content division // -> *": ("_primitive", "a // content", "a * content"),
    "_normalized: content division // -> /": ("_normalized", "a // c", "a / c"),
    "_normalized: content sign dropped": ("_normalized", "sign * math.gcd", "math.gcd"),
    "_normalized: c == 1 -> c != 1": ("_normalized", "p if c == 1", "p if c != 1"),
    "_exact_quotient: exactness check negated": ("_exact_quotient", "if any(rem)", "if not any(rem)"),
}

INTEGER_EQUIVALENT = {
    "_primitive: leading-coefficient sign": "every factor and gcd is then negated: Yun's "
    "quotients stay exact, and the Sturm chain of -f is the chain of f negated, with the "
    "same sign changes; test_integer_factors_reproduce_the_primitive_part pins the sign",
}


def source_mutant(module, name, old, new):
    """``module.name`` with the one occurrence of ``old`` in its source
    replaced by ``new``, compiled into a copy of the module's namespace."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def tight_r_zero(r):
    """The R = 0 form whose g is ``27/(r-1)**2 * (t**2 - r)**2``: PSD, with
    double roots.  With m = n and l = 2k + m - 4, g/3 is
    (2+k-2m)t**4 + (8+m-2k)t**2 + (k+m-1), whose three coefficients sum to 9."""
    a = F(9, (r - 1) ** 2)
    m = (a * r * r - a + 3) / 3
    k = a * r * r + 1 - m
    return CyclicParams(k, 2 * k + m - 4, m, m)


def test_every_integer_oracle_mutant_is_killed_or_equivalent(monkeypatch):
    # the rational-g forms of the fixed set, and one whose constant term
    # (10**8 + 1)**2 is past 2**53, where a float division of the content
    # rounds it and the double roots split
    forms = [c for c in fixed_set() if is_perfect_square(reduce_to_g(c).a1_squared)]
    forms.append(tight_r_zero(10**8 + 1))
    assert len(forms) >= 400
    expected = [decider.decide_structural(c).is_psd for c in forms]

    def outcomes():
        found = []
        for c in forms:
            try:
                found.append(decider.decide_oracle(c).is_psd)
            except (ArithmeticError, AttributeError, TypeError) as error:
                found.append(type(error).__name__)
        return found

    assert outcomes() == expected
    survivors = []
    for label, (name, old, new) in INTEGER_MUTANTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(unipoly, name, source_mutant(unipoly, name, old, new))
            if outcomes() == expected:
                survivors.append(label)
    assert sorted(survivors) == sorted(INTEGER_EQUIVALENT)
