import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from cycquart.decider import _Budget
from cycquart.roots import (
    RootCount,
    classify_roots,
    count_sign_changes,
    is_nonneg_everywhere,
    revise,
)
from cycquart.scalars import QuadExt
from cycquart.unipoly import UniPoly, sturm_count
from test_decider import three_evaluation_find_negative_t

signs = st.lists(st.sampled_from([-1, 0, 1]), max_size=12)


def test_revise_examples():
    assert revise([1, 0, 0, -1]) == [1, -1, -1, -1]
    assert revise([1, 1, -1, 1]) == [1, 1, -1, 1]
    assert revise([1, 0, 0]) == [1, 0, 0]
    assert revise([]) == []
    assert revise([0, 0, 1, 0, 0]) == [0, 0, 1, 0, 0]
    assert revise([1, 0, 0, 0, 0, 1]) == [1, -1, -1, 1, 1, 1]


@given(signs)
def test_revise_idempotent(s):
    assert revise(revise(s)) == revise(s)


@given(signs)
def test_revise_preserves_structure(s):
    out = revise(s)
    assert len(out) == len(s)
    for before, after in zip(s, out):
        if before != 0:
            assert after == before
    nonzero_positions = [i for i, v in enumerate(s) if v != 0]
    if nonzero_positions:
        lo, hi = nonzero_positions[0], nonzero_positions[-1]
        assert out[:lo] == s[:lo]
        assert out[hi:] == s[hi:]


def test_count_sign_changes_drops_zeros():
    assert count_sign_changes([1, 0, -1, 0, 1]) == 2
    assert count_sign_changes([0, 0]) == 0
    assert count_sign_changes([1, 1, -1]) == 1


def test_classify_examples():
    assert classify_roots(UniPoly([1, 0, 1])) == RootCount(0, 1)
    assert classify_roots(UniPoly([1, 1, 0, 0, 1])) == RootCount(0, 2)
    quartic = UniPoly([1, -1, F(-1, 2), 0, F(1, 2)])
    assert classify_roots(quartic) == RootCount(1, 1)
    with pytest.raises(ValueError):
        classify_roots(UniPoly([3]))


def test_classify_matches_sturm_on_random_polys():
    rng = random.Random(101)
    for _ in range(150):
        degree = rng.randint(1, 6)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        p = UniPoly(coeffs)
        assert classify_roots(p).distinct_real == sturm_count(p)


def test_classify_scaling_invariance():
    rng = random.Random(103)
    for _ in range(40):
        degree = rng.randint(1, 5)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(2)
        p = UniPoly(coeffs)
        scaled = p.scale(F(rng.randint(1, 20), rng.randint(1, 20)))
        assert classify_roots(p) == classify_roots(scaled)


def test_is_nonneg_examples():
    assert is_nonneg_everywhere(UniPoly([1, 0, 1]))
    assert not is_nonneg_everywhere(UniPoly([1, 0, 0, 0]))
    g = UniPoly([QuadExt(9, 0, 108), QuadExt(0, -1, 108), QuadExt(9, 0, 108),
                 QuadExt(0, 0, 108), QuadExt(0, 0, 108)])
    assert is_nonneg_everywhere(g)


def test_is_nonneg_edge_cases():
    assert is_nonneg_everywhere(UniPoly([]))
    assert is_nonneg_everywhere(UniPoly([F(3, 7)]))
    assert not is_nonneg_everywhere(UniPoly([F(-1, 7)]))
    assert not is_nonneg_everywhere(UniPoly([-1, 0, 0]))  # negative leading
    assert is_nonneg_everywhere(UniPoly([1, -2, 1]))      # (x-1)^2
    assert not is_nonneg_everywhere(UniPoly([1, 0, -2]))  # x^2 - 2


def test_nonneg_verdicts_are_consistent_with_sampling():
    rng = random.Random(107)
    for _ in range(60):
        degree = rng.choice([2, 4, 6])
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        p = UniPoly(coeffs)
        if is_nonneg_everywhere(p):
            for _ in range(100):
                x = F(rng.randint(-40, 40), rng.randint(1, 8))
                assert p.eval(x) >= 0
        else:
            # the witness search's bisection on p's own chain finds t >= 0
            # only; p(-x) covers x <= 0
            mirrored = UniPoly([a * (-1) ** (degree - i) for i, a in enumerate(coeffs)])
            t = three_evaluation_find_negative_t(p, _Budget(10 ** 6))
            if t is not None:
                x = t
            else:
                t = three_evaluation_find_negative_t(mirrored, _Budget(10 ** 6))
                assert t is not None
                x = -t
            assert p.eval(x) < 0
