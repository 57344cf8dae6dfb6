"""Symbolic proofs of the identities that carry the reduction of F >= 0 to
g >= 0 (see ``form``'s module docstring).

Each is a polynomial identity, checked as ``sympy.expand(lhs - rhs) == 0``.
F is built from ``form.cyclic_sums`` on symbols, and f2 and R come from
``form.reduce_scaled`` (f2 through ``decider.clause_quotients``, which
``eval_polys`` reads), so the proofs run on the package's own
expressions.  sympy is imported at the top: without the ``test`` extra
this module errors instead of skipping.
"""

from fractions import Fraction
from types import SimpleNamespace

import sympy

from cycquart.decider import CLAUSE_POLYNOMIAL_NAMES, clause_quotients
from cycquart.form import cyclic_sums, r_range, reduce_scaled
from cycquart.quartic_rules import discriminants_of

x, y, z, k, l, m, n, t, r, s, X = sympy.symbols("x y z k l m n t r s X")
P, Q, R3 = x + y + z, x * y + y * z + z * x, x * y * z
PARAMS = SimpleNamespace(k=k, l=l, m=m, n=n)

# the endpoints of the realizable xyz-interval on p = 1, q = (1 - t**2)/3
R1 = (1 - 3 * t**2 - 2 * t**3) / 27
R2 = (1 - 3 * t**2 + 2 * t**3) / 27


def symbolic_polys(c) -> SimpleNamespace:
    """``eval_polys(c)`` for symbolic (k, l, m, n): ``clause_quotients`` at
    d = 1, each numerator over its denominator, since a Fraction holds no
    symbol."""
    scaled = (1, c.k, c.l, c.m, c.n)
    numerators, denominators = clause_quotients(scaled, (1, *reduce_scaled(*scaled)))
    return SimpleNamespace(**{
        name: p / q for name, p, q in zip(CLAUSE_POLYNOMIAL_NAMES, numerators, denominators)
    })


def is_zero(expr) -> bool:
    return sympy.expand(expr) == 0


def form(a, b, c):
    s4, s22, s211, s31, s13 = cyclic_sums(a, b, c)
    return s4 + k * s22 + l * s211 + m * s31 + n * s13


def power_sums(p, q, r):
    """(S4, S22, S211, S31 + S13) through (p, q, r)."""
    return (
        p**4 - 4 * p**2 * q + 2 * q**2 + 4 * p * r,
        q**2 - 2 * p * r,
        p * r,
        q * (p**2 - 2 * q) - p * r,
    )


def vandermonde_square(p, q, r):
    """(x-y)**2 * (y-z)**2 * (z-x)**2 through (p, q, r)."""
    return (4 * (p**2 - 3 * q) ** 3 - (2 * p**3 - 9 * p * q + 27 * r) ** 2) / 27


def symmetric_part(c, a, b, d):
    """F(a,b,d) + F(a,d,b), symmetric in (a, b, d)."""
    s4, s22, s211, s31, s13 = cyclic_sums(a, b, d)
    return 2 * s4 + 2 * c.k * s22 + 2 * c.l * s211 + (c.m + c.n) * (s31 + s13)


def odd_part(c, a, b, d):
    """(m-n)*(a+b+d)*(a-b)*(b-d)*(d-a) = F(a,d,b) - F(a,b,d)."""
    return (c.m - c.n) * (a + b + d) * (a - b) * (b - d) * (d - a)


def h_parts(c, t, r):
    """The boundary function H(r) = u + v(r)*sqrt(R) of the reduction, as
    the pair (u, v): u = -2*f2*t**3/3 and v(r) = (3*t**2 - 1 + 27*r)/3."""
    return -2 * symbolic_polys(c).f2 * t**3 / 3, (3 * t**2 - 1 + 27 * r) / 3


def h_function(r):
    """H(r) over symbols, s = sqrt(R)."""
    u, v = h_parts(PARAMS, t, r)
    return u + v * s


def test_power_sums_through_pqr():
    s4, s22, s211, s31, s13 = cyclic_sums(x, y, z)
    for lhs, rhs in zip((s4, s22, s211, s31 + s13), power_sums(P, Q, R3)):
        assert is_zero(lhs - rhs)


def test_vandermonde_square_through_pqr():
    assert is_zero(((x - y) * (y - z) * (z - x)) ** 2 - vandermonde_square(P, Q, R3))
    # it is the discriminant of X**3 - p*X**2 + q*X - r, whose roots are
    # x, y, z: all three are real exactly when it is >= 0
    p, q = sympy.symbols("p q")
    cubic = X**3 - p * X**2 + q * X - r
    assert is_zero(sympy.discriminant(cubic, X) - vandermonde_square(p, q, r))


def test_vandermonde_square_on_the_slice_factors_over_the_r_range():
    # on p = 1, q = (1 - t**2)/3 it is 27*(r2 - r)*(r - r1), so for t >= 0
    # (where r1 <= r2) the point is real exactly when r lies in [r1, r2]
    slice_value = vandermonde_square(1, (1 - t**2) / 3, r)
    assert is_zero(slice_value - 27 * (R2 - r) * (r - R1))
    # r_range computes these two cubics in t; agreeing at four points, it
    # returns them everywhere
    for t0 in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)):
        assert r_range(t0) == (R1.subs(t, t0), R2.subs(t, t0))


def test_symmetrization():
    # F(x,y,z) + F(x,z,y) is symmetric, and the two orientations differ by
    # -(m-n)*(x+y+z)*(x-y)*(y-z)*(z-x).  So
    #   F(x,y,z) + F(x,z,y) - |(m-n)*(x+y+z)*(x-y)*(y-z)*(z-x)|
    #     = 2*min(F(x,y,z), F(x,z,y)),
    # and since (x,y,z) -> (x,z,y) maps R**3 onto itself, the symmetrized
    # inequality holds everywhere iff F >= 0 everywhere.
    assert is_zero(form(x, y, z) - form(x, z, y) + odd_part(PARAMS, x, y, z))
    assert is_zero(form(x, y, z) + form(x, z, y) - symmetric_part(PARAMS, x, y, z))


def test_h_endpoint_product():
    # with s**2 = R: (u + v(r1)*s)*(u + v(r2)*s) = -12*t**6*(m-n)**2 <= 0,
    # so H, affine in r, has a root in [r1, r2]
    radicand = reduce_scaled(1, k, l, m, n)[1]
    product = sympy.rem(sympy.expand(h_function(R1) * h_function(R2)), s**2 - radicand, s)
    assert is_zero(product + 12 * t**6 * (m - n) ** 2)


def test_h_vanishes_at_the_locus_r_star():
    # decider._locus_roots takes r* = (1 - 3*t**2 + 2*cos*t**3)/27 with cos
    # rounded from f2/sqrt(R); with the exact cosine f2/s, H(r*) = 0
    cos = symbolic_polys(PARAMS).f2 / s
    rstar = (1 - 3 * t**2 + 2 * cos * t**3) / 27
    assert is_zero(h_function(rstar))


def test_case_two_forces_a_zero_radicand_when_f1_vanishes():
    # f1 = f3 = 0 fixes k = s - 2 and l = 1 - 2*s, s = m + n; there
    #   f4 = -(3/4)*(s - 2)**2 - (1/4)*(m - n)**2 <= -(3/4)*(s - 2)**2,
    # so f4 >= 0 forces m = n = 1, where R = 0.  Closed-form case 2 runs
    # only when R != 0, so its f1 > 0 made f1 >= 0 decides every input
    # the same way: an equivalent mutant.
    s_mn = m + n
    line = SimpleNamespace(k=s_mn - 2, l=1 - 2 * s_mn, m=m, n=n)
    polys = symbolic_polys(line)
    assert is_zero(polys.f1) and is_zero(polys.f3)
    f4_bound = -sympy.Rational(3, 4) * (s_mn - 2) ** 2
    assert is_zero(polys.f4 - f4_bound + sympy.Rational(1, 4) * (m - n) ** 2)
    # the only point of the line with f4 >= 0
    assert sympy.solve([s_mn - 2, m - n], [m, n], dict=True) == [{m: 1, n: 1}]
    radicand = reduce_scaled(1, line.k, line.l, m, n)[1]
    assert radicand.subs({m: 1, n: 1}) == 0


def test_a_vanishing_d2_forces_d3_negative_and_d4_positive():
    # g on the f1 > 0, f3 > 0 branch has a0 = 3*f1 > 0, a4 = f3 > 0 and
    # a1**2 = R > 0.  D2 = 0 fixes a2 = 3*R/(8*a0), and there
    #   D3 = -9*R**3/128 < 0,
    #   D4 = 9*a0**2*R**2*a4**2 + (27/256)*R**4*a4/a0 + 256*a0**5*a4**3 > 0.
    # By D2 = 108*f1**2*f6, D3 = 324*f1**2*f7 and D4 = 104976*f1**2*f3*f5,
    # every point of that branch with f6 = 0 has f7 < 0 and f5 > 0, and is
    # PSD by D4>0/D3<0.  So the closed forms' f6 < 0 and f6 <= 0 decide
    # alike, and discriminant_rule's d2 < 0 made d2 <= 0 keeps every
    # verdict; it fires D2<0 instead of D3<0, which a pinned input shows.
    a0, a2, a4, rad = sympy.symbols("a0 a2 a4 R", positive=True)
    d2 = discriminants_of(a0, rad, a2, a4)[1]
    root = 3 * rad / (8 * a0)
    assert sympy.solve(d2, a2) == [root]
    _, _, d3, d4 = discriminants_of(a0, rad, root, a4)
    assert is_zero(d3 + 9 * rad**3 / 128)
    terms = (9 * a0**2 * rad**2 * a4**2, sympy.Rational(27, 256) * rad**4 * a4 / a0,
             256 * a0**5 * a4**3)
    assert is_zero(d4 - sum(terms))
    assert all(term.is_positive for term in terms)


def test_a_vanishing_d3_forces_d2_and_d4_to_opposite_signs():
    # With a0, a4, R > 0, D3 = 0 needs D2 != 0 (D2 = 0 gives D3 < 0 above),
    # so it fixes a4 = a2**2*(R - 4*a0*a2)/(2*a0*(3*R - 8*a0*a2)), and there
    #   D4 = -a2**4*R*(9*R - 32*a0*a2)**2*(R - 4*a0*a2)**2 / (4*(3*R - 8*a0*a2)**3)
    # with D2 = a0**2*(3*R - 8*a0*a2): D4*D2 <= 0.  D4 = 0 would need
    # a2 = 0 or R = 4*a0*a2, where a4 = 0, or 9*R = 32*a0*a2, where
    # a4 = -a2**2/(12*a0) < 0.  So D4 = D3 = 0 is unreachable, and D4 > 0
    # with D3 = 0 forces D2 < 0: discriminant_rule's two d3 < 0 made
    # d3 <= 0 decide every input alike.
    a0, a4, rad = sympy.symbols("a0 a4 R", positive=True)
    a2 = sympy.Symbol("a2", real=True)
    d3 = discriminants_of(a0, rad, a2, a4)[2]
    d2_factor = 3 * rad - 8 * a0 * a2
    on_locus = a2**2 * (rad - 4 * a0 * a2) / (2 * a0 * d2_factor)
    (solution,) = sympy.solve(d3, a4)
    assert sympy.simplify(solution - on_locus) == 0
    _, d2, d3, d4 = discriminants_of(a0, rad, a2, on_locus)
    assert sympy.simplify(d3) == 0
    assert is_zero(d2 - a0**2 * d2_factor)
    assert sympy.simplify(
        d4 + a2**4 * rad * (9 * rad - 32 * a0 * a2) ** 2 * (rad - 4 * a0 * a2) ** 2
        / (4 * d2_factor**3)
    ) == 0
    assert on_locus.subs(a2, 0) == 0
    assert sympy.simplify(on_locus.subs(rad, 4 * a0 * a2)) == 0
    assert sympy.simplify(on_locus.subs(rad, 32 * a0 * a2 / 9) + a2**2 / (12 * a0)) == 0
