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
``reduce_to_g`` returns g as one ``SpecialQuartic`` (a1 = -sqrt(R), held
as R and a sign); every decider, the CLI and the harness read that object.
The reduction runs through elementary symmetric coordinates
p = x+y+z, q = xy+yz+zx, r = xyz and the substitution t = sqrt(1-3q) on
the slice p = 1; realizability of (1, q, r) by real (x, y, z) is exactly
r in [r1(t), r2(t)] (``r_range``).  The identities that carry it (the
cyclic sums through (p, q, r), the Vandermonde square, the symmetrization
F(x,y,z) + F(x,z,y) and the endpoint product of the boundary function H)
are proved in sympy by ``tests/test_identities.py``; this module keeps
only what the deciders, the harness and the CLI read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .quartic_rules import SpecialQuartic

__all__ = [
    "CyclicParams",
    "BcdeParams",
    "scaled_coefficients",
    "cyclic_sums",
    "eval_form",
    "r_range",
    "radicand",
    "reduce_to_g",
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
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))

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
class BcdeParams:
    B: Fraction
    C: Fraction
    D: Fraction
    E: Fraction

    def __post_init__(self):
        for name in ("B", "C", "D", "E"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


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


def reduce_to_g(c: CyclicParams) -> SpecialQuartic:
    """The reduced quartic g(t) as a special quartic, ``a1 = -sqrt(R)``.

    ``a1`` is carried as ``R`` and a sign, so the discriminants of g stay
    rational; the sign is 0 exactly when R = 0.  Coefficients are never
    normalized, and ``to_unipoly()`` is rational whenever sqrt(R) is.
    """
    rad = radicand(c)
    return SpecialQuartic(
        a0=3 * (2 + c.k - c.m - c.n),
        a1_squared=rad,
        a1_sign=-1 if rad > 0 else 0,
        a2=3 * (4 + c.m + c.n - c.l),
        a4=1 + c.k + c.m + c.n + c.l,
    )


def from_bcde(b: BcdeParams) -> CyclicParams:
    """Coefficient conversion from the sigma-basis parameters (B, C, D, E)."""
    return CyclicParams(
        k=2 * b.B + b.C + b.E + 6,
        l=2 * b.C + b.D + b.E + 12 + 5 * b.B,
        m=b.B + 4,
        n=b.B + b.E + 4,
    )
