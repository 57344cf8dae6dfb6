import random
from fractions import Fraction as F

import pytest

from cycquart.form import (
    BcdeParams,
    CyclicParams,
    SigmaCoords,
    cyclic_sums,
    eval_form,
    from_bcde,
    g_special_quartic,
    h_function,
    power_sums,
    r_range,
    radicand,
    reduce_to_g,
    symmetrized_gap,
    vandermonde_square,
)
from cycquart.decider import eval_polys
from cycquart.scalars import QuadExt


def rand_fraction(rng, span=9, den=6):
    return F(rng.randint(-span, span), rng.randint(1, den))


def rand_params(rng, span=9):
    return CyclicParams(*(rand_fraction(rng, span) for _ in range(4)))


def test_eval_form_examples():
    assert eval_form(CyclicParams(0, 0, 0, 0), 1, 1, 1) == 3
    rng = random.Random(3)
    for _ in range(20):
        c = rand_params(rng)
        assert eval_form(c, 1, 1, 1) == 3 * (1 + c.k + c.l + c.m + c.n)
        assert eval_form(c, 1, -1, 0) == 2 + c.k - c.m - c.n


def test_eval_form_matches_the_cyclic_sums():
    rng = random.Random(19)

    def coordinate():
        return rng.choice((
            0,
            rng.randint(-9, 9),
            F(rng.randint(-9, 9), rng.randint(1, 7)),
            F(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)),
        ))

    for _ in range(400):
        c = CyclicParams(*(
            F(rng.randint(-10**6, 10**6), rng.randint(1, 10 ** rng.choice((1, 6, 40))))
            for _ in range(4)
        ))
        point = [coordinate() for _ in range(3)]
        s4, s22, s211, s31, s13 = cyclic_sums(*(F(v) for v in point))
        value = eval_form(c, *point)
        assert isinstance(value, F)
        assert value == s4 + c.k * s22 + c.l * s211 + c.m * s31 + c.n * s13


def test_cyclic_invariance():
    rng = random.Random(7)
    for _ in range(100):
        c = rand_params(rng)
        x, y, z = (rand_fraction(rng) for _ in range(3))
        assert eval_form(c, x, y, z) == eval_form(c, y, z, x)


def test_swap_identity():
    # swapping m and n equals evaluating at (x, z, y)
    rng = random.Random(13)
    for _ in range(100):
        c = rand_params(rng)
        swapped = CyclicParams(c.k, c.l, c.n, c.m)
        x, y, z = (rand_fraction(rng) for _ in range(3))
        assert eval_form(swapped, x, y, z) == eval_form(c, x, z, y)


def test_power_sums_examples():
    s4, s22, s211, s_mixed = power_sums(SigmaCoords(6, 11, 6))
    assert (s4, s22) == (98, 49)
    assert s211 == 36
    assert s_mixed == 118

    q, r = F(5, 3), F(-2, 7)
    s4, s22, _, _ = power_sums(SigmaCoords(0, q, r))
    assert s4 == 2 * q * q and s22 == q * q

    assert power_sums(SigmaCoords(1, 0, 0)) == (1, 0, 0, 0)


def test_power_sums_identity():
    rng = random.Random(17)
    for _ in range(200):
        x, y, z = (rand_fraction(rng) for _ in range(3))
        sig = SigmaCoords.of_point(x, y, z)
        s4, s22, s211, s_mixed = power_sums(sig)
        d4, d22, d211, d31, d13 = cyclic_sums(x, y, z)
        assert (s4, s22, s211) == (d4, d22, d211)
        assert s_mixed == d31 + d13
        assert vandermonde_square(sig) == ((x - y) * (y - z) * (z - x)) ** 2


def test_vandermonde_examples():
    assert vandermonde_square(SigmaCoords(6, 11, 6)) == 4
    assert vandermonde_square(SigmaCoords(1, F(1, 3), F(1, 27))) == 0
    assert vandermonde_square(SigmaCoords(0, 0, 0)) == 0


def test_r_range_examples():
    assert r_range(F(0)) == (F(1, 27), F(1, 27))
    assert r_range(F(1)) == (F(-4, 27), F(0))
    assert r_range(F(3)) == (F(-80, 27), F(28, 27))
    with pytest.raises(ValueError):
        r_range(F(-1, 2))


def test_radicand_examples():
    assert radicand(CyclicParams(0, 0, 0, 0)) == 64
    assert radicand(CyclicParams(2, 0, 0, 0)) == 0
    assert radicand(CyclicParams(0, 0, -1, 0)) == 108


def test_radicand_clause_identity():
    rng = random.Random(19)
    for _ in range(100):
        c = rand_params(rng)
        polys = eval_polys(c)
        assert radicand(c) == 27 * polys.g4 ** 2 + polys.f2 ** 2


def test_reduce_examples():
    g = reduce_to_g(CyclicParams(0, 0, 0, 0))
    assert g.radicand == 64
    assert [v.u for v in g.coeffs] == [6, 0, 12, 0, 1]
    assert [v.v for v in g.coeffs] == [0, -1, 0, 0, 0]
    assert g.poly.eval(F(1)) == 11  # 6 - 8 + 12 + 1

    g = reduce_to_g(CyclicParams(2, 0, 0, 0))
    assert g.radicand == 0
    assert [v.u for v in g.coeffs] == [12, 0, 12, 0, 3]
    assert g.poly.degree == 4 and g.poly.is_rational is False

    g = reduce_to_g(CyclicParams(0, 0, -1, 0))
    assert g.radicand == 108
    assert [v.u for v in g.coeffs] == [9, 0, 9, 0, 0]


def test_g_special_quartic_is_the_reduced_quartic():
    rng = random.Random(37)
    fixed = [CyclicParams(0, 0, 0, 0), CyclicParams(2, 0, 0, 0), CyclicParams(0, 0, -1, 0)]
    for c in fixed + [rand_params(rng) for _ in range(50)]:
        quartic = g_special_quartic(c)
        assert quartic.a1_squared == radicand(c)
        assert quartic.a1_sign == (-1 if radicand(c) > 0 else 0)
        assert quartic.to_unipoly() == reduce_to_g(c).poly


def test_reduce_degenerate_leading():
    # 2 + k - m - n = 0 drops the quartic term
    g = reduce_to_g(CyclicParams(0, 0, 1, 1))
    assert g.poly.degree == 3
    assert len(g.coeffs) == 5


def test_symmetrized_gap():
    rng = random.Random(23)
    for _ in range(30):
        c = rand_params(rng)
        assert symmetrized_gap(c, 1, 1, 1) == 6 * (1 + c.k + c.l + c.m + c.n)
    assert symmetrized_gap(CyclicParams(0, 0, 0, 0), 1, 2, 3) == 196
    # the gap equals twice the smaller of the two cyclic orientations
    for _ in range(100):
        c = rand_params(rng)
        x, y, z = (rand_fraction(rng) for _ in range(3))
        gap = symmetrized_gap(c, x, y, z)
        assert gap == 2 * min(eval_form(c, x, y, z), eval_form(c, x, z, y))
    # m = n kills the odd part entirely
    for _ in range(30):
        k, l, m = (rand_fraction(rng) for _ in range(3))
        c = CyclicParams(k, l, m, m)
        x, y, z = (rand_fraction(rng) for _ in range(3))
        assert symmetrized_gap(c, x, y, z) == 2 * eval_form(c, x, y, z)


def test_symmetrized_gap_equivalence_with_verdicts():
    # the gap is everywhere nonnegative iff the form is PSD: sampled check
    from cycquart.decider import decide_structural, find_witness

    rng = random.Random(37)
    for _ in range(40):
        c = rand_params(rng, span=6)
        if decide_structural(c).is_psd:
            for _ in range(25):
                x, y, z = (rand_fraction(rng) for _ in range(3))
                assert symmetrized_gap(c, x, y, z) >= 0
        else:
            w = find_witness(c)
            assert w is not None
            assert symmetrized_gap(c, *w) < 0


def test_h_function_examples():
    # m = n and f2 = 0 force H to vanish identically
    c = CyclicParams(2, 0, 0, 0)
    assert h_function(c, F(3, 2), F(1, 5)).sign() == 0

    c = CyclicParams(0, 0, 1, 0)
    h = h_function(c, F(1), F(-4, 27))
    assert (h.u, h.v, h.radicand) == (F(14, 3), F(-2, 3), 76)


def test_h_product_identity():
    rng = random.Random(29)
    for _ in range(200):
        c = rand_params(rng)
        t = abs(rand_fraction(rng))
        r1, r2 = r_range(t)
        product = h_function(c, t, r1) * h_function(c, t, r2)
        assert product.v == 0
        assert product.u == -12 * t ** 6 * (c.m - c.n) ** 2


def test_from_bcde_examples():
    assert from_bcde(BcdeParams(0, 0, 0, 0)) == CyclicParams(6, 12, 4, 4)
    assert from_bcde(BcdeParams(1, 0, 0, 0)) == CyclicParams(8, 17, 5, 5)
    assert from_bcde(BcdeParams(0, 0, 0, 1)) == CyclicParams(7, 13, 4, 5)


def test_reduced_quartic_coefficient_shape():
    rng = random.Random(31)
    for _ in range(50):
        c = rand_params(rng)
        g = reduce_to_g(c)
        assert g.coeffs[1] == QuadExt(0, -1, g.radicand)
        assert g.coeffs[3].sign() == 0
        assert g.coeffs[0].u == 3 * (2 + c.k - c.m - c.n)
        assert g.coeffs[2].u == 3 * (4 + c.m + c.n - c.l)
        assert g.coeffs[4].u == 1 + c.k + c.m + c.n + c.l
