"""The cyclic ternary quartic form and its reduction to a univariate quartic.

The form is

    F(x, y, z) = S4 + k*S22 + l*S211 + m*S31 + n*S13

with the cyclic sums (each over the shifts (x,y,z) -> (y,z,x) -> (z,x,y))

    S4   = x**4 + y**4 + z**4          S22 = x**2*y**2 + y**2*z**2 + z**2*x**2
    S211 = x*y*z*(x + y + z)           S31 = x**3*y + y**3*z + z**3*x
    S13  = x*y**3 + y*z**3 + z*x**3.

F is nonnegative on all of R**3 iff the reduced quartic

    g(t) = 3*(2+k-m-n)*t**4 - sqrt(R)*t**3 + 3*(4+m+n-l)*t**2 + (1+k+m+n+l)

with R = 27*(m-n)**2 + (4*k+m+n-8-2*l)**2 is nonnegative on all of R.
The reduction runs through elementary symmetric coordinates
p = x+y+z, q = xy+yz+zx, r = xyz and the substitution t = sqrt(1-3q) on
the slice p = 1; realizability of (1, q, r) by real (x, y, z) is exactly
r in [r1(t), r2(t)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .quartic_rules import SpecialQuartic
from .scalars import QuadExt
from .unipoly import UniPoly

__all__ = [
    "CyclicParams",
    "SigmaCoords",
    "BcdeParams",
    "ReducedQuartic",
    "scaled_coefficients",
    "cyclic_sums",
    "eval_form",
    "power_sums",
    "vandermonde_square",
    "r_range",
    "radicand",
    "reduce_to_g",
    "g_special_quartic",
    "symmetrized_gap",
    "h_function",
    "from_bcde",
]


@dataclass(frozen=True)
class CyclicParams:
    """Coefficients (k, l, m, n) of the form; every rational 4-tuple is valid."""

    k: Fraction
    l: Fraction
    m: Fraction
    n: Fraction

    def __post_init__(self):
        for name in ("k", "l", "m", "n"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @cached_property
    def _scaled(self) -> tuple[int, int, int, int, int]:
        k, l, m, n = self.k, self.l, self.m, self.n
        d = math.lcm(k.denominator, l.denominator, m.denominator, n.denominator)
        return (
            d,
            k.numerator * (d // k.denominator),
            l.numerator * (d // l.denominator),
            m.numerator * (d // m.denominator),
            n.numerator * (d // n.denominator),
        )


@dataclass(frozen=True)
class SigmaCoords:
    """Elementary symmetric values (x+y+z, xy+yz+zx, xyz)."""

    p: Fraction
    q: Fraction
    r: Fraction

    def __post_init__(self):
        for name in ("p", "q", "r"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def of_point(cls, x, y, z) -> "SigmaCoords":
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        return cls(x + y + z, x * y + y * z + z * x, x * y * z)


@dataclass(frozen=True)
class BcdeParams:
    B: Fraction
    C: Fraction
    D: Fraction
    E: Fraction

    def __post_init__(self):
        for name in ("B", "C", "D", "E"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


@dataclass(frozen=True)
class ReducedQuartic:
    """The reduced quartic g(t), kept in its unnormalized 5-coefficient shape.

    ``coeffs`` is always the formal tuple
    ``(3*(2+k-m-n), -sqrt(R), 3*(4+m+n-l), 0, 1+k+m+n+l)`` with the cubic
    entry stored as the QuadExt ``(0, -1, R)``; the trimmed polynomial
    (degree may drop when leading entries vanish) is available as ``poly``.
    """

    radicand: Fraction
    coeffs: tuple

    @property
    def poly(self) -> UniPoly:
        return UniPoly(self.coeffs)


def scaled_coefficients(c: CyclicParams) -> tuple[int, int, int, int, int]:
    """``(d, K, L, M, N)``: the least common denominator d of (k, l, m, n)
    and the integers ``K = d*k``, ``L = d*l``, ``M = d*m``, ``N = d*n``.

    ``d*F = d*S4 + K*S22 + L*S211 + M*S31 + N*S13``, so F and this integer
    form have the same sign everywhere.  Every quantity the decision reads
    is homogeneous in (1, k, l, m, n), so it too keeps its sign when
    (1, k, l, m, n) is replaced by (d, K, L, M, N).  Computed once per
    ``CyclicParams`` and kept on it.
    """
    return c._scaled


def cyclic_sums(x, y, z) -> tuple:
    """(S4, S22, S211, S31, S13) at an exact point: ``int`` coordinates give
    ``int`` sums, ``Fraction`` coordinates ``Fraction`` ones."""
    x2, y2, z2 = x * x, y * y, z * z
    s4 = x2 * x2 + y2 * y2 + z2 * z2
    s22 = x2 * y2 + y2 * z2 + z2 * x2
    s211 = x * y * z * (x + y + z)
    s31 = x2 * x * y + y2 * y * z + z2 * z * x
    s13 = x * y2 * y + y * z2 * z + z * x2 * x
    return s4, s22, s211, s31, s13


def eval_form(c: CyclicParams, x, y, z) -> Fraction:
    """Exact value of F at a rational point with ``int`` or ``Fraction``
    coordinates.

    With ``(d, K, L, M, N) = scaled_coefficients(c)`` and the point written
    as (X, Y, Z)/e over the least common denominator e of its coordinates,

        F(x, y, z) = (d*S4 + K*S22 + L*S211 + M*S31 + N*S13)(X, Y, Z) / (d*e**4),

    the integer sum ``kernels.face_scan`` evaluates on its faces; only the
    quotient is a Fraction.
    """
    d, K, L, M, N = scaled_coefficients(c)
    e = math.lcm(x.denominator, y.denominator, z.denominator)
    s4, s22, s211, s31, s13 = cyclic_sums(
        x.numerator * (e // x.denominator),
        y.numerator * (e // y.denominator),
        z.numerator * (e // z.denominator),
    )
    return Fraction(d * s4 + K * s22 + L * s211 + M * s31 + N * s13, d * e**4)


def power_sums(s: SigmaCoords) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(S4, S22, S211, S31+S13) expressed through (p, q, r).

    These are the closed identities
        S4        = p**4 - 4*p**2*q + 2*q**2 + 4*p*r
        S22       = q**2 - 2*p*r
        S211      = p*r
        S31 + S13 = q*(p**2 - 2*q) - p*r.
    """
    p, q, r = s.p, s.q, s.r
    sum_x4 = p ** 4 - 4 * p ** 2 * q + 2 * q ** 2 + 4 * p * r
    sum_x2y2 = q ** 2 - 2 * p * r
    sum_x2yz = p * r
    sum_mixed = q * (p ** 2 - 2 * q) - p * r
    return sum_x4, sum_x2y2, sum_x2yz, sum_mixed


def vandermonde_square(s: SigmaCoords) -> Fraction:
    """``(x-y)**2 * (y-z)**2 * (z-x)**2`` through (p, q, r)."""
    p, q, r = s.p, s.q, s.r
    return (4 * (p ** 2 - 3 * q) ** 3 - (2 * p ** 3 - 9 * p * q + 27 * r) ** 2) / 27


def r_range(t: Fraction) -> tuple[Fraction, Fraction]:
    """The xyz-interval [r1, r2] realizable by real x, y, z with
    x+y+z = 1 and xy+yz+zx = (1-t**2)/3, for t >= 0."""
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    r1 = Fraction(1, 27) * (1 - 3 * t ** 2 - 2 * t ** 3)
    r2 = Fraction(1, 27) * (1 - 3 * t ** 2 + 2 * t ** 3)
    return r1, r2


def radicand(c: CyclicParams) -> Fraction:
    """``R = 27*(m-n)**2 + (4k+m+n-8-2l)**2``; zero iff both squares vanish."""
    return 27 * (c.m - c.n) ** 2 + (4 * c.k + c.m + c.n - 8 - 2 * c.l) ** 2


def reduce_to_g(c: CyclicParams) -> ReducedQuartic:
    """The reduced quartic g(t); coefficients are never normalized."""
    rad = radicand(c)
    coeffs = (
        QuadExt(3 * (2 + c.k - c.m - c.n), 0, rad),
        QuadExt(0, -1, rad),
        QuadExt(3 * (4 + c.m + c.n - c.l), 0, rad),
        QuadExt(0, 0, rad),
        QuadExt(1 + c.k + c.m + c.n + c.l, 0, rad),
    )
    return ReducedQuartic(radicand=rad, coeffs=coeffs)


def g_special_quartic(c: CyclicParams) -> SpecialQuartic:
    """The reduced quartic g(t) as a special quartic, ``a1 = -sqrt(R)``.

    ``a1`` is carried as ``R`` and a sign, so the discriminants of g stay
    rational; the sign is 0 exactly when R = 0.
    """
    rad = radicand(c)
    return SpecialQuartic(
        a0=3 * (2 + c.k - c.m - c.n),
        a1_squared=rad,
        a1_sign=-1 if rad > 0 else 0,
        a2=3 * (4 + c.m + c.n - c.l),
        a4=1 + c.k + c.m + c.n + c.l,
    )


def symmetrized_gap(c: CyclicParams, x, y, z) -> Fraction:
    """Slack of the symmetrized inequality at a point.

    Returns ``(F(x,y,z) + F(x,z,y)) - |(m-n)*(x+y+z)*(x-y)*(y-z)*(z-x)|``,
    which is nonnegative everywhere iff F is.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    s4, s22, s211, s31, s13 = cyclic_sums(x, y, z)
    lhs = (
        2 * s4
        + 2 * c.k * s22
        + 2 * c.l * s211
        + (c.n + c.m) * s31
        + (c.m + c.n) * s13
    )
    rhs = (c.m - c.n) * (x + y + z) * (x - y) * (y - z) * (z - x)
    return lhs - abs(rhs)


def h_function(c: CyclicParams, t: Fraction, r: Fraction) -> QuadExt:
    """The boundary function H(r) of the reduction, as an element of Q(sqrt(R)).

    H(r) = (2*(8-4k+2l-m-n)/3)*t**3 + (3*t**2 - 1 + 27*r)*sqrt(R)/3,
    using 3*(m-n)**2 + (8-4k+2l-m-n)**2/9 = R/9.  Its two values at the
    endpoints r1, r2 multiply to -12*t**6*(m-n)**2, which is what forces a
    root of H inside [r1, r2].
    """
    t, r = Fraction(t), Fraction(r)
    rad = radicand(c)
    neg_f2 = 8 - 4 * c.k + 2 * c.l - c.m - c.n
    u = Fraction(2, 3) * neg_f2 * t ** 3
    v = Fraction(1, 3) * (3 * t ** 2 - 1 + 27 * r)
    return QuadExt(u, v, rad)


def from_bcde(b: BcdeParams) -> CyclicParams:
    """Coefficient conversion from the sigma-basis parameters (B, C, D, E)."""
    return CyclicParams(
        k=2 * b.B + b.C + b.E + 6,
        l=2 * b.C + b.D + b.E + 12 + 5 * b.B,
        m=b.B + 4,
        n=b.B + b.E + 4,
    )
