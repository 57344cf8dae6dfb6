import math
import random
from fractions import Fraction as F

import pytest

from cycquart.form import (
    BcdeParams,
    CyclicParams,
    cyclic_sums,
    eval_form,
    from_bcde,
    r_range,
    radicand,
    reduce_to_g,
    reduced_coefficients,
)
from cycquart.decider import eval_polys
from cycquart.harness import STRATA, stratum_sampler
from cycquart.quartic_rules import SpecialQuartic
from cycquart.scalars import QuadExt, is_perfect_square, rational_sqrt, sgn
from test_identities import h_parts, odd_part, power_sums, symmetric_part, vandermonde_square


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
    # (x, y, z) = (1, 2, 3) has (p, q, r) = (6, 11, 6)
    s4, s22, s211, s31, s13 = cyclic_sums(1, 2, 3)
    assert (s4, s22, s211, s31 + s13) == (98, 49, 36, 118)
    assert power_sums(6, 11, 6) == (98, 49, 36, 118)

    q, r = F(5, 3), F(-2, 7)
    s4, s22, _, _ = power_sums(0, q, r)
    assert s4 == 2 * q * q and s22 == q * q

    assert power_sums(1, 0, 0) == (1, 0, 0, 0)


def test_power_sums_identity():
    rng = random.Random(17)
    for _ in range(200):
        x, y, z = (rand_fraction(rng) for _ in range(3))
        pqr = (x + y + z, x * y + y * z + z * x, x * y * z)
        d4, d22, d211, d31, d13 = cyclic_sums(x, y, z)
        assert power_sums(*pqr) == (d4, d22, d211, d31 + d13)
        assert vandermonde_square(*pqr) == ((x - y) * (y - z) * (z - x)) ** 2


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
    assert (g.a0, g.a1_squared, g.a1_sign, g.a2, g.a4) == (6, 64, -1, 12, 1)
    assert g.to_unipoly().coeffs == (6, -8, 12, 0, 1)
    assert g.to_unipoly().eval(F(1)) == 11  # 6 - 8 + 12 + 1

    g = reduce_to_g(CyclicParams(2, 0, 0, 0))
    assert (g.a0, g.a1_squared, g.a1_sign, g.a2, g.a4) == (12, 0, 0, 12, 3)
    assert g.to_unipoly().coeffs == (12, 0, 12, 0, 3)

    g = reduce_to_g(CyclicParams(0, 0, -1, 0))
    assert (g.a0, g.a1_squared, g.a1_sign, g.a2, g.a4) == (9, 108, -1, 9, 0)
    assert g.to_unipoly().coeffs[1] == QuadExt(0, -1, 108)


def test_reduced_quartic_cubic_coefficient_is_minus_sqrt_r():
    rng = random.Random(37)
    fixed = [CyclicParams(0, 0, 0, 0), CyclicParams(2, 0, 0, 0), CyclicParams(0, 0, -1, 0)]
    for c in fixed + [rand_params(rng) for _ in range(50)]:
        g = reduce_to_g(c)
        assert g.a1_squared == radicand(c)
        assert g.a1_sign == (-1 if radicand(c) > 0 else 0)
        # the odd part of g is a1*t**3: a1 = (g(1) - g(-1)) / 2
        poly = g.to_unipoly()
        a1 = (poly.eval(F(1)) - poly.eval(F(-1))) * F(1, 2)
        assert sgn(a1) == g.a1_sign and a1 * a1 == radicand(c)


def test_reduce_degenerate_leading():
    # 2 + k - m - n = 0 drops the quartic term
    g = reduce_to_g(CyclicParams(0, 0, 1, 1))
    assert g.a0 == 0 and g.a1_squared == 36
    assert g.to_unipoly().degree == 3
    assert g.to_unipoly().coeffs == (-6, 18, 0, 3)


def paper_g(c):
    """(a0, R, a2, a4, f2) of g(t) = a0*t**4 - sqrt(R)*t**3 + a2*t**2 + a4
    as the paper writes them, R = 27*(m-n)**2 + f2**2, over Fraction: the
    reference for the package's one integer reduction."""
    k, l, m, n = c.k, c.l, c.m, c.n
    f2 = 4 * k + m + n - 8 - 2 * l
    a0, a2, a4 = 3 * (2 + k - m - n), 3 * (4 + m + n - l), 1 + k + m + n + l
    return a0, 27 * (m - n) ** 2 + f2**2, a2, a4, f2


def reduction_inputs():
    """Draws from all six strata, each also scaled by 10**200 and
    10**-200 and redrawn with denominators up to 10**12, and forms with
    R = 0, with a perfect-square R (a0 = 0 in one) and with R = 108."""
    inputs = [CyclicParams(2, 0, 0, 0), CyclicParams(0, 0, 0, 0), CyclicParams(0, 0, 1, 1),
              CyclicParams(0, 0, -1, 0)]
    for stratum in STRATA:
        for seed in range(4 if stratum == "f5_zero_near" else 25):
            c = stratum_sampler(stratum, random.Random(seed))
            big = stratum_sampler(stratum, random.Random(seed), denominator_bound=10**12)
            inputs += [c, big]
            inputs += [
                CyclicParams(*(v * scale for v in (c.k, c.l, c.m, c.n)))
                for scale in (F(10) ** 200, F(1, 10**200))
            ]
    return inputs


def test_reduction_matches_the_papers_g():
    seen = {"zero": 0, "square": 0, "irrational": 0, "big": 0}
    for c in reduction_inputs():
        a0, rad, a2, a4, f2 = paper_g(c)
        assert reduce_to_g(c) == SpecialQuartic(a0, rad, -1 if rad else 0, a2, a4), c
        assert radicand(c) == rad
        d = math.lcm(*(v.denominator for v in (c.k, c.l, c.m, c.n)))
        integers = reduced_coefficients(c)
        assert integers == (d, d * a0, d * d * rad, d * a2, d * a4, d * f2), c
        assert all(type(v) is int for v in integers)
        seen["zero" if rad == 0 else "square" if is_perfect_square(rad) else "irrational"] += 1
        seen["big"] += d > 10**100
    assert min(seen.values()) >= 3, seen


def test_p_of_u_is_r_squared_g_of_u_over_sqrt_r():
    # coefficient by coefficient from g's own polynomial: the coefficient of
    # t**j, written as c*sqrt(R) for odd j, gives c * R**(2 - j//2) at u**j;
    # at R = 0, where g is even, R is read as 1 and p is g
    checked = {True: 0, False: 0, "zero": 0}
    for c in reduction_inputs():
        q = reduce_to_g(c)
        rad = q.a1_squared
        g, p = q.to_unipoly(), q.to_unipoly_in_u()
        assert all(type(v) is F for v in p.coeffs)
        if rad == 0:
            assert p == g and p.coeffs == g.coeffs, c
            checked["zero"] += 1
            continue
        square = is_perfect_square(rad)
        expected = []
        for j, v in zip(range(g.degree, -1, -1), g.coeffs):
            if isinstance(v, QuadExt):
                assert j % 2 and v.u == 0
                v = v.v
            elif j % 2:
                assert square or v == 0
                v = v / rational_sqrt(rad) if square else v
            expected.append(v * rad ** (2 - j // 2))
        assert p.coeffs == tuple(expected), c
        if square:
            root = rational_sqrt(rad)
            for u in (F(0), F(1), F(-3, 2), F(7, 5)):
                assert p.eval(u) == rad**2 * g.eval(u / root)
        checked[square] += 1
    assert checked[True] >= 3 and checked[False] >= 100 and checked["zero"] >= 3


def test_to_unipoly_is_rational_exactly_when_r_is_a_square():
    inputs = [CyclicParams(0, 0, 0, 0), CyclicParams(0, 0, 1, 1), CyclicParams(0, 0, -1, 0)]
    for stratum in ("R_zero", "case1_boundary", "generic"):
        inputs += [stratum_sampler(stratum, random.Random(seed)) for seed in range(100)]
    seen = set()
    for c in inputs:
        rational = all(isinstance(v, F) for v in reduce_to_g(c).to_unipoly().coeffs)
        assert rational == is_perfect_square(radicand(c)), c
        seen.add(rational)
    assert seen == {True, False}


def symmetrized_gap(c, x, y, z):
    """Slack of the symmetrized inequality at a point:
    F(x,y,z) + F(x,z,y) - |(m-n)*(x+y+z)*(x-y)*(y-z)*(z-x)|."""
    return symmetric_part(c, x, y, z) - abs(odd_part(c, x, y, z))


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
    u, _ = h_parts(c, F(3, 2), F(1, 5))
    assert u == 0 and radicand(c) == 0  # H = u + v*sqrt(0) = 0

    c = CyclicParams(0, 0, 1, 0)
    assert h_parts(c, F(1), F(-4, 27)) == (F(14, 3), F(-2, 3))
    assert radicand(c) == 76


def test_h_product_identity():
    rng = random.Random(29)
    for _ in range(200):
        c = rand_params(rng)
        t = abs(rand_fraction(rng))
        r1, r2 = r_range(t)
        (u1, v1), (u2, v2) = h_parts(c, t, r1), h_parts(c, t, r2)
        # (u1 + v1*sqrt(R)) * (u2 + v2*sqrt(R)), as rational and sqrt(R) parts
        assert u1 * v2 + u2 * v1 == 0
        assert u1 * u2 + v1 * v2 * radicand(c) == -12 * t ** 6 * (c.m - c.n) ** 2


def test_from_bcde_examples():
    assert from_bcde(BcdeParams(0, 0, 0, 0)) == CyclicParams(6, 12, 4, 4)
    assert from_bcde(BcdeParams(1, 0, 0, 0)) == CyclicParams(8, 17, 5, 5)
    assert from_bcde(BcdeParams(0, 0, 0, 1)) == CyclicParams(7, 13, 4, 5)


EXACT_CLASSES = {
    "CyclicParams": (CyclicParams, ("k", "l", "m", "n")),
    "BcdeParams": (BcdeParams, ("B", "C", "D", "E")),
    "SpecialQuartic": (
        lambda a0, s, a2, a4: SpecialQuartic(a0, s, 1, a2, a4),
        ("a0", "a1_squared", "a2", "a4"),
    ),
    "SpecialQuartic.from_a1": (SpecialQuartic.from_a1, ("a0", "a2", "a4")),
}


@pytest.mark.parametrize("build, names", EXACT_CLASSES.values(), ids=EXACT_CLASSES)
def test_a_float_coefficient_is_refused(build, names):
    # 0.1 would be decided as its binary value 3602879701896397/36028797018963968
    for slot in range(4):
        values = [1, 1, 1, 1]
        values[slot] = 0.1
        with pytest.raises(TypeError, match="0.1 is a float"):
            build(*values)
    for value in (1, F(1, 10), "1/10"):
        built = build(value, value, value, value)
        for name in names:
            assert type(getattr(built, name)) is F and getattr(built, name) == F(value)


def test_reduced_quartic_coefficient_shape():
    rng = random.Random(31)
    for _ in range(50):
        c = rand_params(rng)
        g = reduce_to_g(c)
        assert g.a0 == 3 * (2 + c.k - c.m - c.n)
        assert g.a2 == 3 * (4 + c.m + c.n - c.l)
        assert g.a4 == 1 + c.k + c.m + c.n + c.l
        poly = g.to_unipoly()
        assert poly.degree == (4 if g.a0 != 0 else 3)
        assert poly.coeffs[-2] == 0  # no linear term
