import random
from fractions import Fraction as F

import pytest

from cycquart.scalars import (
    QuadExt,
    format_rational,
    is_perfect_square,
    parse_rational,
    rational_sqrt,
    sgn,
)


def test_norm_product():
    a = QuadExt(1, 1, 2)
    assert a * a.conjugate() == QuadExt(-1, 0, 2)
    assert (a * a.conjugate()).v == 0


def test_additive_identity():
    zero = QuadExt(0, 0, 5)
    x = QuadExt(F(3, 7), F(-2, 5), 5)
    assert zero + x == x
    assert x + zero == x


def test_square_of_two_plus_sqrt3():
    a = QuadExt(2, 1, 3)
    sq = a * a
    assert (sq.u, sq.v) == (F(7), F(4))


def test_sign_examples():
    assert QuadExt(3, -2, 2).sign() == 1
    assert QuadExt(-1, 1, 2).sign() == 1
    assert QuadExt(2, -2, 1).sign() == 0
    assert QuadExt(0, 0, 7).sign() == 0
    assert QuadExt(0, -3, 7).sign() == -1
    assert QuadExt(-3, 2, 2).sign() == -1


def test_sign_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        rad = F(rng.randint(0, 50))
        a = QuadExt(F(rng.randint(-9, 9), rng.randint(1, 5)),
                    F(rng.randint(-9, 9), rng.randint(1, 5)), rad)
        b = QuadExt(F(rng.randint(-9, 9), rng.randint(1, 5)),
                    F(rng.randint(-9, 9), rng.randint(1, 5)), rad)
        assert (a * b).sign() == a.sign() * b.sign()


def test_mismatched_radicands_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) * QuadExt(0, 1, 5)


def test_rational_operands_lift():
    a = QuadExt(1, 1, 2)
    assert a + F(1, 2) == QuadExt(F(3, 2), 1, 2)
    assert 2 * a == QuadExt(2, 2, 2)
    assert F(1) - a == QuadExt(0, -1, 2)


def test_division_roundtrip():
    rng = random.Random(23)
    for _ in range(200):
        rad = F(rng.choice([2, 3, 5, 7, 11, 64, 0]))
        a = QuadExt(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), rad)
        b = QuadExt(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), rad)
        if b.sign() == 0:
            continue
        assert (a * b) / b == a


def test_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 2) / QuadExt(0, 0, 2)
    # value zero even though the pair is nonzero
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 4) / QuadExt(2, -1, 4)


def test_division_by_zero_divisor_pair():
    # radicand 4 is a perfect square: (2, 1) has norm 0 but value 4
    num = QuadExt(8, 0, 4)
    den = QuadExt(2, 1, 4)
    assert (num / den).to_fraction() == F(2)


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, -2)


def test_fraction_arguments_are_kept_and_others_converted():
    f, g, r = F(3, 7), F(-2, 5), F(5)
    x = QuadExt(f, g, r)
    assert x.u is f and x.v is g and x.radicand is r
    y = QuadExt(1, 2, 3)
    assert all(type(c) is F for c in (y.u, y.v, y.radicand))
    assert (y.u, y.v, y.radicand) == (1, 2, 3)
    with pytest.raises(ValueError):
        QuadExt(1, 1, -2)
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), F(-2))


def test_products_and_quotients_with_int_and_fraction_operands():
    # each result against its components worked out in Fractions
    rng = random.Random(29)

    def check(result, u, v, rad):
        assert (result.u, result.v, result.radicand) == (u, v, rad)
        assert all(type(c) is F for c in (result.u, result.v, result.radicand))

    def draw():
        return rng.choice((rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 5))))

    for _ in range(400):
        rad = rng.choice((0, 2, 3, 4, 5, F(7, 3)))
        R = F(rad)
        au, av, bu, bv = draw(), draw(), draw(), draw()
        a, b = QuadExt(au, av, rad), QuadExt(bu, bv, rad)
        u, v, bu, bv = F(au), F(av), F(bu), F(bv)
        check(a * b, u * bu + v * bv * R, u * bv + v * bu, R)
        q = draw()
        check(a * q, u * q, v * q, R)
        check(q * a, u * q, v * q, R)
        if q != 0:
            check(a / q, u / q, v / q, R)
        if b.sign() != 0:
            norm = bu * bu - bv * bv * R
            if norm != 0:
                check(a / b, (u * bu - v * bv * R) / norm, (v * bu - u * bv) / norm, R)
            else:
                root = rational_sqrt(R)
                check(a / b, (u + v * root) / (bu + bv * root), F(0), R)
        if a.sign() != 0:
            norm = u * u - v * v * R
            if norm != 0:
                check(q / a, q * u / norm, -q * v / norm, R)
            else:
                check(q / a, q / (u + v * rational_sqrt(R)), F(0), R)


def test_parse_and_format_roundtrip():
    for text in ["-3/7", "12", "0", "+5", "1000/64", "-1"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "/3", "3/0", "nan", "0x10", "1/2/3"])
def test_parse_rejects_inexact(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_perfect_square_helpers():
    assert is_perfect_square(F(64))
    assert is_perfect_square(F(9, 4))
    assert not is_perfect_square(F(2))
    assert not is_perfect_square(F(-4))
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    with pytest.raises(ValueError):
        rational_sqrt(F(2))


def test_to_fraction():
    assert QuadExt(3, 0, 7).to_fraction() == F(3)
    assert QuadExt(1, 1, 4).to_fraction() == F(3)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2).to_fraction()
    assert sgn(F(-2, 3)) == -1
