import math
import random
import sys
from fractions import Fraction as F

import pytest

from cycquart import scalars
from cycquart.scalars import (
    QuadExt,
    format_quotient,
    format_rational,
    parse_rational,
    rational_sqrt,
    sgn,
    sqrt_multiplier,
)

# the radicands the package builds: positive and not a perfect square
NON_SQUARES = [r for r in range(1, 51) if math.isqrt(r) ** 2 != r]


def test_norm_product():
    a = QuadExt(1, 1, 2)
    conjugate = QuadExt(a.u, -a.v, a.radicand)
    assert a * conjugate == QuadExt(-1, 0, 2)
    assert (a * conjugate).v == 0 and (a * conjugate).u == a.norm()


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
    assert sgn(F(-2, 3)) == -1


def test_sign_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        rad = F(rng.choice(NON_SQUARES))
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
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) == QuadExt(1, 1, 3)


def test_rational_operands_lift():
    a = QuadExt(1, 1, 2)
    assert a + F(1, 2) == QuadExt(F(3, 2), 1, 2)
    assert 2 * a == QuadExt(2, 2, 2)
    assert F(1) - a == QuadExt(0, -1, 2)


def test_division_roundtrip():
    # division is multiplication by the one inverse, ``reciprocal``
    rng = random.Random(23)
    for _ in range(200):
        rad = F(rng.choice([2, 3, 5, 7, 11]))
        a = QuadExt(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), rad)
        b = QuadExt(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), rad)
        if b.sign() == 0:
            continue
        assert (a * b) * b.reciprocal() == a
        assert b * b.reciprocal() == 1


def test_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, 2).reciprocal()
    # value zero even though the pair is nonzero: norm 0 is refused
    with pytest.raises(ZeroDivisionError):
        QuadExt(2, -1, 4).reciprocal()
    assert not any(hasattr(QuadExt, name) for name in ("__truediv__", "__rtruediv__"))


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, -2)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 0)


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
        rad = rng.choice((2, 3, 5, F(7, 3)))
        R = F(rad)
        au, av, bu, bv = draw(), draw(), draw(), draw()
        a, b = QuadExt(au, av, rad), QuadExt(bu, bv, rad)
        u, v, bu, bv = F(au), F(av), F(bu), F(bv)
        check(a * b, u * bu + v * bv * R, u * bv + v * bu, R)
        q = draw()
        check(a * q, u * q, v * q, R)
        check(q * a, u * q, v * q, R)
        if q != 0:
            check(a * (1 / F(q)), u / q, v / q, R)
        if b.sign() != 0:
            norm = bu * bu - bv * bv * R
            check(b.reciprocal(), bu / norm, -bv / norm, R)
            check(a * b.reciprocal(), (u * bu - v * bv * R) / norm, (v * bu - u * bv) / norm, R)
        if a.sign() != 0:
            norm = u * u - v * v * R
            check(q * a.reciprocal(), q * u / norm, -q * v / norm, R)


def test_parse_and_format_roundtrip():
    for text in ["-3/7", "12", "0", "+5", "1000/64", "-1"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value


def digits_value(text):
    """The int written by ``text``, read in pieces under the interpreter's
    int/str digit limit."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for start in range(0, len(text), 600):
        piece = text[start:start + 600]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def test_format_rational_writes_a_rational_of_any_size():
    # str() of an int refuses more than 4300 digits by default; a witness
    # near the PSD boundary can need more
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert format_rational(F(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
    assert format_rational(F(-(10**9000), 7)) == "-1" + "0" * 9000 + "/7"
    assert format_rational(F(3, 10**6000)) == "3/1" + "0" * 6000
    rng = random.Random(5)
    for bits in (1990, 2000, 2001, 2100, 14300, 30000, 70000):
        num, den = rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1
        value = F(-num, den)
        text = format_rational(value)
        top, bottom = text.split("/") if "/" in text else (text, "1")
        assert F(digits_value(top), digits_value(bottom)) == value, bits
        assert not top.startswith("-0") and not bottom.startswith("0")
    for value in (F(0), F(-3, 7), F(12), F(10**600 + 1, 10**599)):
        assert format_rational(value) == str(value)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_format_quotient_is_format_rational_of_the_pair():
    # the pair need not be in lowest terms, and the value may be zero,
    # negative, past 2000 bits (printed by _digits in parts) or past 4300
    # digits (the interpreter's int/str limit)
    big = 10**4400 + 3
    pairs = [(0, 1), (0, 11664), (-6, 4), (-3, 7), (12, 1), (24, 2), (-5, 5),
             (7 * 2**2100 + 1, 3 * 2**2100), (-(2**2001) * 9, 6 * 2**2001), (2**2001, 1),
             (big * 6, 4), (-big, 10**4350), (big * big, big)]
    for num, den in pairs:
        assert format_quotient(num, den) == format_rational(F(num, den)), (num.bit_length(), den)
    assert format_quotient(-big * 14, 21) == "-2" + "0" * 4399 + "6/3"


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "/3", "3/0", "nan", "0x10", "1/2/3"])
def test_parse_rejects_inexact(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_perfect_square_helpers():
    # the root comes back in the value's own type, or None when irrational
    for value, root in ((64, 8), (0, 0), (10**40, 10**20)):
        assert type(rational_sqrt(value)) is int and rational_sqrt(value) == root
    for value, root in ((F(64), F(8)), (F(9, 4), F(3, 2)), (F(0), F(0))):
        assert type(rational_sqrt(value)) is F and rational_sqrt(value) == root
    for value in (2, -4, F(8, 9), F(2), F(-4)):
        assert rational_sqrt(value) is None


def test_sqrt_multiplier_tests_the_root_once_per_map(monkeypatch):
    # v -> v*sqrt(s): in the operands' own type when sqrt(s) is rational,
    # else in Q(sqrt(s)) with radicand s
    for s, root in ((64, 8), (0, 0), (10**40, 10**20)):
        v = sqrt_multiplier(s)(-3)
        assert type(v) is int and v == -3 * root
    v = sqrt_multiplier(F(9, 4))(2)
    assert type(v) is F and v == 3
    for s in (2, F(8, 9)):
        v = sqrt_multiplier(s)(F(-1, 2))
        assert type(v) is QuadExt and (v.u, v.v, v.radicand) == (0, F(-1, 2), s)
    # sqrt(s) is tested when the map is made, not at each v
    calls = []
    monkeypatch.setattr(scalars, "rational_sqrt", lambda s: calls.append(s) or rational_sqrt(s))
    for s, last in ((2, QuadExt(0, 3, 2)), (64, 24)):
        calls.clear()
        times = sqrt_multiplier(s)
        assert [times(v) for v in range(4)][-1] == last
        assert calls == [s]
