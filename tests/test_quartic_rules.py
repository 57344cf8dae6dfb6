import random
from fractions import Fraction as F

import pytest

from cycquart.quartic_rules import SpecialQuartic, discriminants, is_nonneg
from cycquart.roots import is_nonneg_everywhere
from cycquart.scalars import QuadExt
from cycquart.unipoly import UniPoly, discriminant_sequence


def test_discriminants_examples():
    q = SpecialQuartic.from_a1(1, 1, 0, 1)
    assert discriminants(q) == (1, 3, -6, 229)

    q = SpecialQuartic.from_a1(1, -1, F(-1, 2), F(1, 2))
    d1, d2, d3, d4 = discriminants(q)
    assert (d3, d4) == (F(-25, 4), 0)

    q = SpecialQuartic(a0=F(1), a1_squared=F(0), a1_sign=0, a2=F(1), a4=F(1))
    assert discriminants(q)[1] == -8


def test_is_nonneg_examples():
    assert is_nonneg(SpecialQuartic.from_a1(1, 1, 0, 1))
    assert is_nonneg(SpecialQuartic.from_a1(1, -1, F(-1, 2), F(1, 2)))
    assert not is_nonneg(SpecialQuartic.from_a1(1, -3, 1, 1))


def test_a1_sign_flip_invariance():
    rng = random.Random(41)
    for _ in range(60):
        a0 = F(rng.randint(1, 9), rng.randint(1, 5))
        s = F(rng.randint(1, 80), rng.randint(1, 5))
        a2 = F(rng.randint(-9, 9), rng.randint(1, 5))
        a4 = F(rng.randint(-9, 9), rng.randint(1, 5))
        plus = SpecialQuartic(a0, s, 1, a2, a4)
        minus = SpecialQuartic(a0, s, -1, a2, a4)
        assert discriminants(plus) == discriminants(minus)


def test_agrees_with_discriminant_sequence_when_rational():
    rng = random.Random(43)
    for _ in range(50):
        a0 = F(rng.randint(1, 9), rng.randint(1, 5))
        a1 = F(rng.randint(-9, 9), rng.randint(1, 5))
        if a1 == 0:
            a1 = F(1)
        a2 = F(rng.randint(-9, 9), rng.randint(1, 5))
        a4 = F(rng.randint(-9, 9), rng.randint(1, 5))
        q = SpecialQuartic.from_a1(a0, a1, a2, a4)
        seq = discriminant_sequence(UniPoly([a0, a1, a2, 0, a4]))
        assert tuple(seq[1:]) == discriminants(q)[1:]


def test_validation():
    with pytest.raises(ValueError):
        SpecialQuartic(F(1), F(-1), -1, F(0), F(1))  # negative a1_squared
    with pytest.raises(ValueError):
        SpecialQuartic(F(1), F(4), 0, F(0), F(1))  # sign 0 with nonzero square
    with pytest.raises(ValueError):
        SpecialQuartic(F(1), F(0), 1, F(0), F(1))
    with pytest.raises(ValueError):
        discriminants(SpecialQuartic(F(0), F(1), 1, F(0), F(1)))


def test_is_nonneg_preconditions():
    with pytest.raises(ValueError):
        is_nonneg(SpecialQuartic(F(-1), F(1), 1, F(0), F(1)))  # a0 < 0
    with pytest.raises(ValueError):
        is_nonneg(SpecialQuartic(F(1), F(1), 1, F(0), F(-1)))  # a4 < 0
    with pytest.raises(ValueError):
        is_nonneg(SpecialQuartic(F(1), F(0), 0, F(-2), F(1)))  # biquadratic


def test_rule_matches_oracle():
    rng = random.Random(47)
    for _ in range(150):
        a0 = F(rng.randint(1, 9), rng.randint(1, 5))
        a1 = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        a2 = F(rng.randint(-9, 9), rng.randint(1, 5))
        a4 = F(rng.randint(1, 9), rng.randint(1, 5))
        q = SpecialQuartic.from_a1(a0, a1, a2, a4)
        assert is_nonneg(q) == is_nonneg_everywhere(q.to_unipoly())


def test_to_unipoly_irrational_cubic_coefficient():
    q = SpecialQuartic(a0=F(9), a1_squared=F(108), a1_sign=-1, a2=F(9), a4=F(1))
    poly = q.to_unipoly()
    assert poly.degree == 4
    assert poly.coeffs[1] == QuadExt(0, -1, 108)
    # the rule and the oracle must agree on the irrational instance too
    assert is_nonneg(q) == is_nonneg_everywhere(poly)
