import random
from fractions import Fraction as F

import pytest

from cycquart.quartic_rules import SpecialQuartic, discriminants
from cycquart.scalars import QuadExt, sgn
from cycquart.unipoly import (
    UniPoly,
    _normalized,
    discriminant_sequence,
    poly_divmod,
    poly_gcd,
    squarefree_decompose,
    squarefree_sturm,
    sturm_chain,
    sturm_count,
)


def rand_fraction(rng, span=9, den=7):
    return F(rng.randint(-span, span), rng.randint(1, den))


def rand_poly(rng, degree, span=9):
    coeffs = [rand_fraction(rng, span) for _ in range(degree + 1)]
    while coeffs[0] == 0:
        coeffs[0] = rand_fraction(rng, span)
    return UniPoly(coeffs)


def test_eval_examples():
    p = UniPoly([1, 1, 0, 0, 1])
    assert p.eval(F(-3, 4)) == F(229, 256)
    assert UniPoly([]).eval(F(5, 3)) == 0
    assert UniPoly([6, -8, 12, 0, 1]).eval(F(1)) == 11


def test_eval_quadext_point():
    p = UniPoly([1, 0, -2])  # x^2 - 2
    assert p.eval(QuadExt(0, 1, 2)).sign() == 0


def test_squarefree_examples():
    p = UniPoly([1, -1, F(-1, 2), 0, F(1, 2)])  # (x-1)^2 (x^2+x+1/2)
    factors = dict()
    for fac, mult in squarefree_decompose(p):
        factors[mult] = fac
    assert factors[2] == UniPoly([1, -1])
    assert factors[1] == UniPoly([1, 1, F(1, 2)])

    assert squarefree_decompose(UniPoly([1, 0, 1])) == [(UniPoly([1, 0, 1]), 1)]
    assert squarefree_decompose(UniPoly([1, 0, 0, 0])) == [(UniPoly([1, 0]), 3)]
    with pytest.raises(ValueError):
        squarefree_decompose(UniPoly([]))


def test_squarefree_reassembly():
    rng = random.Random(5)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(1, 3))
        q = rand_poly(rng, rng.randint(1, 2))
        prod = p * p * q
        rebuilt = UniPoly([prod.leading])
        for factor, mult in squarefree_decompose(prod):
            for _ in range(mult):
                rebuilt = rebuilt * factor
        assert rebuilt == prod


def test_sturm_examples():
    assert sturm_count(UniPoly([1, -6, 11, -6])) == 3
    assert sturm_count(UniPoly([1, 0, 1])) == 0
    assert sturm_count(UniPoly([1, 1, 0, 0, 1])) == 0


def test_sturm_half_open_intervals():
    p = UniPoly([1, -6, 11, -6])  # roots 1, 2, 3
    assert sturm_count(p, F(1), F(3)) == 2
    assert sturm_count(p, F(0), F(1)) == 1
    assert sturm_count(p, F(3), F(100)) == 0
    assert sturm_count(p, None, F(1)) == 1
    double = UniPoly([1, -2, 1])
    assert sturm_count(double) == 1
    assert sturm_count(double, F(0), F(1)) == 1
    assert sturm_count(double, F(1), F(5)) == 0


def test_sturm_count_rejects_an_inverted_interval():
    p = UniPoly([1, 0, -1])  # roots -1, 1
    assert sturm_count(p, F(-2), F(2)) == 2
    assert sturm_count(p, F(2), F(2)) == 0
    assert sturm_count(p, F(1), F(1)) == 0
    with pytest.raises(ValueError):
        sturm_count(p, F(2), F(-2))
    with pytest.raises(ValueError):
        sturm_count(UniPoly([3]), F(1), F(0))


def test_sturm_counts_distinct_roots_of_known_products():
    rng = random.Random(17)
    for _ in range(40):
        roots = sorted({F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)})
        p = UniPoly([1])
        for r in roots:
            mult = rng.randint(1, 2)
            for _ in range(mult):
                p = p * UniPoly([1, -r])
        assert sturm_count(p) == len(roots)


def test_sturm_chain_invariants():
    # consecutive entries satisfy the negated-remainder relation up to a
    # positive factor, and the chain ends at (a multiple of) gcd(p, p');
    # the inputs reach Q(sqrt(7)), a divisor with a negative leading
    # coefficient after an odd number of division steps, and degree skips
    rng = random.Random(53)
    root = UniPoly([1, QuadExt(-1, -1, 7)])  # t - (1 + sqrt(7))
    cases = []
    for _ in range(30):
        p = rand_poly(rng, rng.randint(2, 5))
        if rng.random() < 0.5:
            p = p * p.derivative() if not p.derivative().is_zero else p
        cases += [p, root * p, root * root * p]
    for n in (3, 4, 5, 6):
        # depressed (no x**(n-1) term): p / p' takes one division step;
        # trinomials skip from degree n-1 to degree 1
        for lead in (-rng.randint(1, 5), rng.randint(1, 5)):
            rest = [rand_fraction(rng) for _ in range(n - 1)]
            a, b = rand_fraction(rng), rand_fraction(rng)
            cases += [UniPoly([lead, 0] + rest), root * UniPoly([lead, 0] + rest)]
            cases.append(UniPoly([lead] + [0] * (n - 2) + [a, b]))
    odd_negative = skips = irrational = 0
    for p in cases:
        if p.degree < 1:
            continue
        chain = sturm_chain(p)
        assert chain[0] == p
        assert chain[1] == p.derivative()
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            quot, rem = poly_divmod(a, b)
            # c is -rem times a positive factor, rational or in Q(sqrt(7))
            assert not c.is_zero
            lead = c.leading
            ratio = -rem.leading * (lead.reciprocal() if isinstance(lead, QuadExt) else 1 / lead)
            assert sgn(ratio) > 0
            assert (-rem) == c.scale(ratio)
            steps = sum(sgn(q) != 0 for q in quot.coeffs)
            odd_negative += steps % 2 == 1 and sgn(b.leading) < 0
            skips += c.degree < b.degree - 1
            irrational += any(isinstance(q, QuadExt) and q.v for q in b.coeffs)
        tail = chain[-1]
        g = poly_gcd(p, p.derivative())
        if g.degree == 0:
            assert tail.degree == 0
        else:
            assert tail.monic() == g
    assert odd_negative >= 4 and skips >= 6 and irrational >= 40


def test_chain_and_gcd_divide_no_quadext(monkeypatch):
    # the remainder sequence multiplies, and the monic gcd takes one
    # reciprocal through the rational norm: QuadExt has no other inverse
    root = UniPoly([1, QuadExt(-1, -1, 7)])  # t - (1 + sqrt(7))
    quad = UniPoly([3, QuadExt(0, -1, 7), 2, 0, 1])
    p = root * root * quad
    pairs = [(p, p.derivative()), (root * quad, root * p.derivative())]
    calls = []
    inner = QuadExt.reciprocal

    def counted(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(QuadExt, "reciprocal", counted)
    chain = sturm_chain(p)
    assert calls == []
    gcds = []
    for a, b in pairs:
        gcds.append(poly_gcd(a, b))
        assert len(calls) == len(gcds)
    monkeypatch.undo()
    assert len(chain) == 6 and chain[-1].monic() == root
    assert gcds == [root, root] and all(g.leading == 1 for g in gcds)


def test_squarefree_sturm_matches_chain_of_quotient_by_gcd():
    # squarefree_sturm reads gcd(p, p') off the chain of p; the result must
    # be the chain of p / gcd(p, p') built the direct way, with the same
    # sign changes at -oo and +oo
    def direct(p):
        squarefree, _ = poly_divmod(p, poly_gcd(p, p.derivative()))
        chain = sturm_chain(squarefree)
        at_plus = [sgn(q.leading) for q in chain]
        at_minus = [-s if q.degree % 2 else s for q, s in zip(chain, at_plus)]

        def changes(signs):
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

        return chain, changes(at_minus), changes(at_plus)

    def lifted(coeffs, rad):
        return UniPoly([QuadExt(u, v, rad) for u, v in coeffs])

    rng = random.Random(59)
    cases = []
    for _ in range(20):
        p = rand_poly(rng, rng.randint(1, 4))
        q = rand_poly(rng, rng.randint(1, 2))
        cases += [p, p * p * q, p * q * q * q]
    for rad in (7, 5, 4, 9):  # non-square and perfect-square radicands
        root = lifted([(1, 0), (-1, 1)], rad)  # t - (1 + sqrt(rad))
        quad = lifted([(3, 0), (0, -1), (2, 0), (0, 0), (1, 0)], rad)
        cases += [root, quad, root * root, quad * quad, root * quad * quad]
    cases += [UniPoly([F(-2, 3), F(5, 7)]), UniPoly([QuadExt(0, 2, 7), F(1, 3)])]
    for p in cases:
        chain, at_minus, at_plus = squarefree_sturm(p)
        expected, expected_minus, expected_plus = direct(p)
        assert chain == expected
        assert (at_minus, at_plus) == (expected_minus, expected_plus)
        assert chain[-1].degree == 0
    degrees = {p.degree for p in cases}
    assert 1 in degrees and max(degrees) >= 8
    assert sum(poly_gcd(p, p.derivative()).degree > 0 for p in cases) >= 40


def test_discriminant_sequence_quartic_example():
    seq = discriminant_sequence(UniPoly([1, 1, 0, 0, 1]))
    assert seq == [4, 3, -6, 229]
    assert [1 if v > 0 else -1 if v < 0 else 0 for v in seq] == [1, 1, -1, 1]


def test_discriminant_sequence_cubic_examples():
    triple = UniPoly([1, -1, F(1, 3), F(-1, 27)])  # (x - 1/3)^3
    seq = discriminant_sequence(triple)
    assert seq[1] == 0 and seq[2] == 0
    distinct = discriminant_sequence(UniPoly([1, -6, 11, -6]))
    assert distinct[2] > 0


def test_discriminant_sequence_matches_explicit_quartic_formulas():
    rng = random.Random(29)
    ratios = set()
    for _ in range(60):
        a0, a1, a2, a4 = (rand_fraction(rng) for _ in range(4))
        if a0 == 0:
            a0 = F(1)
        seq = discriminant_sequence(UniPoly([a0, a1, a2, 0, a4]))
        quartic = SpecialQuartic.from_a1(a0, a1, a2, a4)
        d1, d2, d3, d4 = discriminants(quartic)
        assert seq[1:] == [d2, d3, d4]
        ratios.add(seq[0] / d1)
    assert ratios == {F(4)}


def discrimination_minors(p):
    """[D1, ..., Dn] by the definition: Dk is the leading 2k x 2k minor of
    the discrimination matrix of (f, f'), taken by sympy; D3 is halved at
    n = 4."""
    sympy = pytest.importorskip("sympy")
    n = p.degree
    f = [sympy.Rational(c.numerator, c.denominator) for c in p.coeffs]
    df = [0] + [c * (n - i) for i, c in enumerate(f[:-1])]
    matrix = sympy.zeros(2 * n, 2 * n)
    for j in range(n):
        for col in range(n + 1):
            matrix[2 * j, j + col] = f[col]
            matrix[2 * j + 1, j + col] = df[col]
    seq = [F(str(matrix[: 2 * k, : 2 * k].det())) for k in range(1, n + 1)]
    if n == 4:
        seq[2] /= 2
    return seq


def test_discriminant_sequence_matches_the_determinant_definition():
    # dense polynomials, sparse ones that skip degrees in the remainder
    # sequence of (f, f'), and products with repeated roots
    rng = random.Random(41)
    cases = []
    for _ in range(50):
        cases.append(rand_poly(rng, rng.randint(1, 6)))
        sparse = [rand_fraction(rng) if rng.random() < 0.4 else 0 for _ in range(6)]
        cases.append(UniPoly([rand_fraction(rng) or 1] + sparse[: rng.randint(1, 6)]))
        root = rand_poly(rng, rng.randint(1, 2))
        cases.append(root * root * rand_poly(rng, rng.randint(0, 2)))
    assert {p.degree for p in cases} == {1, 2, 3, 4, 5, 6}
    assert sum(poly_gcd(p, p.derivative()).degree > 0 for p in cases) >= 50
    for p in cases:
        assert discriminant_sequence(p) == discrimination_minors(p), p
    # remainder sequences that skip degrees or end before a constant
    pins = {
        (1, 0, 0, 0, 1): [4, 0, 0, 256],
        (1, 0, 0, 0, -1, 0): [5, 0, 0, -320, -256],
        (1, 0, 0, 0, 0, 0, 0): [6, 0, 0, 0, 0, 0],
        (1, 0, -2, 0, 1): [4, 16, 0, 0],
        (1, 0, 0, 1): [3, 0, -27],
    }
    for coeffs, expected in pins.items():
        p = UniPoly(coeffs)
        assert discriminant_sequence(p) == discrimination_minors(p) == expected


def test_discriminant_sequence_rejects_constants():
    with pytest.raises(ValueError):
        discriminant_sequence(UniPoly([5]))
    with pytest.raises(ValueError):
        discriminant_sequence(UniPoly([]))


def test_quadext_poly_agrees_with_rational_path():
    rng = random.Random(31)
    for _ in range(30):
        coeffs = [rand_fraction(rng) for _ in range(rng.randint(2, 5))]
        if coeffs[0] == 0:
            coeffs[0] = F(2)
        rational = UniPoly(coeffs)
        lifted = UniPoly([QuadExt(c, 0, 7) for c in coeffs])
        x = rand_fraction(rng)
        assert lifted.eval(x) == rational.eval(x)
        assert sturm_count(lifted) == sturm_count(rational)


def test_gcd_monic_and_common_roots():
    p = UniPoly([1, -3, 2])  # (x-1)(x-2)
    q = UniPoly([1, -1]) * UniPoly([1, -5])
    assert poly_gcd(p, q) == UniPoly([1, -1])
    assert poly_gcd(p, UniPoly([1, 0, 1])).degree == 0


def euclid_gcd(a, b):
    """poly_gcd as its own Euclidean loop, before it shared the remainder
    sequence of the Sturm chain: remainders kept positive, not negated."""
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, _normalized(r)
    return a if a.is_zero else a.monic()


def test_gcd_matches_the_euclidean_loop():
    rng = random.Random(61)
    zero = UniPoly([])
    root = UniPoly([1, QuadExt(-1, -1, 7)])  # t - (1 + sqrt(7))
    pairs = []
    for _ in range(40):
        common = rand_poly(rng, rng.randint(1, 3))
        p, q = rand_poly(rng, rng.randint(0, 3)), rand_poly(rng, rng.randint(0, 3))
        pairs += [(common * p, common * q), (p, q), (q * q, q)]
        pairs += [(p, zero), (zero, q), (root * p, root * common), (root * root * q, p)]
    pairs += [(zero, zero), (root, zero), (zero, root), (root * root, root)]
    degrees = []
    for a, b in pairs:
        expected = euclid_gcd(a, b)
        g = poly_gcd(a, b)
        assert g == expected
        if not g.is_zero:
            assert g.leading == 1
            for operand in (a, b):
                assert poly_divmod(operand, g)[1].is_zero
        degrees.append(g.degree)
    assert degrees.count(0) >= 30 and sum(d > 0 for d in degrees) >= 100
