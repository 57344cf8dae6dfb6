"""Symbolic proofs of the identities that carry the reduction of F >= 0 to
g >= 0 (see ``form``'s module docstring).

Each is a polynomial identity, checked as ``sympy.expand(lhs - rhs) == 0``.
F is built from ``form.cyclic_sums`` on symbols, and f2 and R come from
``decider.eval_polys`` and ``form.radicand``, so the proofs run on the
package's own expressions.  sympy is imported at the top: without the
``test`` extra this module errors instead of skipping.
"""

from fractions import Fraction
from types import SimpleNamespace

import sympy

from cycquart.decider import eval_polys
from cycquart.form import cyclic_sums, r_range, radicand

x, y, z, k, l, m, n, t, r, s, X = sympy.symbols("x y z k l m n t r s X")
P, Q, R3 = x + y + z, x * y + y * z + z * x, x * y * z
PARAMS = SimpleNamespace(k=k, l=l, m=m, n=n)

# the endpoints of the realizable xyz-interval on p = 1, q = (1 - t**2)/3
R1 = (1 - 3 * t**2 - 2 * t**3) / 27
R2 = (1 - 3 * t**2 + 2 * t**3) / 27


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
    return -2 * eval_polys(c).f2 * t**3 / 3, (3 * t**2 - 1 + 27 * r) / 3


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
    product = sympy.rem(sympy.expand(h_function(R1) * h_function(R2)), s**2 - radicand(PARAMS), s)
    assert is_zero(product + 12 * t**6 * (m - n) ** 2)


def test_h_vanishes_at_the_locus_r_star():
    # decider._locus_roots takes r* = (1 - 3*t**2 + 2*cos*t**3)/27 with cos
    # rounded from f2/sqrt(R); with the exact cosine f2/s, H(r*) = 0
    cos = eval_polys(PARAMS).f2 / s
    rstar = (1 - 3 * t**2 + 2 * cos * t**3) / 27
    assert is_zero(h_function(rstar))
