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
g is computed once per form, over the integers (``reduce_scaled``, kept
by ``reduced_coefficients``), the form's only copy of g.  The deciders read
them, and ``reduce_to_g`` builds a ``SpecialQuartic`` off them at each call
(a1 = -sqrt(R), held as R and a sign) for the witness search and the CLI.
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
from .scalars import exact_fields

__all__ = [
    "CyclicParams",
    "BcdeParams",
    "scaled_coefficients",
    "cyclic_sums",
    "form_numerator",
    "form_quotient",
    "eval_form",
    "r_range",
    "radicand",
    "reduce_to_g",
    "reduce_scaled",
    "reduced_coefficients",
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
        exact_fields(self, "klmn")

    @cached_property
    def _integers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # every decision reads both, so they are built together
        k, l, m, n = self.k, self.l, self.m, self.n
        d = math.lcm(k.denominator, l.denominator, m.denominator, n.denominator)
        scaled = (
            d,
            k.numerator * (d // k.denominator),
            l.numerator * (d // l.denominator),
            m.numerator * (d // m.denominator),
            n.numerator * (d // n.denominator),
        )
        return scaled, (d, *reduce_scaled(*scaled))


@dataclass(frozen=True)
class BcdeParams:
    B: Fraction
    C: Fraction
    D: Fraction
    E: Fraction

    def __post_init__(self):
        exact_fields(self, "BCDE")


def scaled_coefficients(c: CyclicParams) -> tuple[int, int, int, int, int]:
    """``(d, K, L, M, N)``: the least common denominator d of (k, l, m, n)
    and the integers ``K = d*k``, ``L = d*l``, ``M = d*m``, ``N = d*n``,
    computed once per ``CyclicParams`` and kept on it.  F has the sign of
    ``d*F = d*S4 + K*S22 + L*S211 + M*S31 + N*S13`` everywhere.
    """
    return c._integers[0]


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


def form_numerator(c: CyclicParams, x, y, z) -> int:
    """The integer numerator of ``eval_form(c, x, y, z)`` over its positive
    denominator ``d*e**4``: it has the sign of F at the point, and no
    Fraction is built.  Every sign of F the witness search reads outside
    ``kernels.first_negative`` comes from here."""
    d, K, L, M, N = scaled_coefficients(c)
    e = math.lcm(x.denominator, y.denominator, z.denominator)
    s4, s22, s211, s31, s13 = cyclic_sums(
        x.numerator * (e // x.denominator),
        y.numerator * (e // y.denominator),
        z.numerator * (e // z.denominator),
    )
    return d * s4 + K * s22 + L * s211 + M * s31 + N * s13


def form_quotient(c: CyclicParams, x, y, z) -> tuple[int, int]:
    """F at a rational point with ``int`` or ``Fraction`` coordinates, as
    ``(numerator, denominator)``, not reduced.

    With ``(d, K, L, M, N) = scaled_coefficients(c)`` and the point written
    as (X, Y, Z)/e over the least common denominator e of its coordinates,

        F(x, y, z) = (d*S4 + K*S22 + L*S211 + M*S31 + N*S13)(X, Y, Z) / (d*e**4),

    the integer sum ``kernels.first_negative`` evaluates on its tables.  The
    numerator is ``form_numerator``, and the denominator is positive.  A
    witness's F value is printed from this pair (``format_quotient``).
    """
    e = math.lcm(x.denominator, y.denominator, z.denominator)
    return form_numerator(c, x, y, z), scaled_coefficients(c)[0] * e**4


def eval_form(c: CyclicParams, x, y, z) -> Fraction:
    """Exact value of F at a rational point: ``form_quotient`` as a Fraction."""
    return Fraction(*form_quotient(c, x, y, z))


def r_range(t: Fraction) -> tuple[Fraction, Fraction]:
    """The xyz-interval [r1, r2] realizable by real x, y, z with
    x+y+z = 1 and xy+yz+zx = (1-t**2)/3, for t >= 0."""
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    r1 = Fraction(1, 27) * (1 - 3 * t ** 2 - 2 * t ** 3)
    r2 = Fraction(1, 27) * (1 - 3 * t ** 2 + 2 * t ** 3)
    return r1, r2


def reduce_scaled(d, K, L, M, N) -> tuple:
    """``(A0, S, A2, A4, F2) = (d*a0, d**2*R, d*a2, d*a4, d*f2)`` for
    ``(d, K, L, M, N) = scaled_coefficients(c)``: d*g has the cubic
    coefficient ``-sqrt(S)``, and R = 27*(m-n)**2 + f2**2.  The one place
    g's coefficients are computed.  Each is homogeneous in (d, K, L, M, N),
    so its sign, and any ratio of two of equal degree, is that of g; on
    (1, k, l, m, n) they are g's own, in any ring (sympy in the proofs)."""
    f2 = 4 * K + M + N - 8 * d - 2 * L
    a0, a2 = 3 * (2 * d + K - M - N), 3 * (4 * d + M + N - L)
    return a0, 27 * (M - N) ** 2 + f2 * f2, a2, d + K + M + N + L, f2


def reduced_coefficients(c: CyclicParams) -> tuple[int, int, int, int, int, int]:
    """``(d, A0, S, A2, A4, F2)``: the common denominator d of (k, l, m, n)
    and ``reduce_scaled(*scaled_coefficients(c))``, the integers of d*g.
    Computed once per ``CyclicParams`` and kept on it."""
    return c._integers[1]


def radicand(c: CyclicParams) -> Fraction:
    """``R = 27*(m-n)**2 + (4k+m+n-8-2l)**2 = S/d**2``; zero iff both squares vanish."""
    d, _, s, _, _, _ = reduced_coefficients(c)
    return Fraction(s, d * d)


def reduce_to_g(c: CyclicParams) -> SpecialQuartic:
    """The reduced quartic g(t) as a special quartic, ``a1 = -sqrt(R)``.

    ``a1`` is carried as ``R`` and a sign, so the discriminants of g stay
    rational; the sign is 0 exactly when R = 0.  Coefficients are never
    normalized, and ``to_unipoly()`` is rational whenever sqrt(R) is.  Built
    off ``reduced_coefficients`` at each call; the form keeps only integers.
    """
    d, a0, s, a2, a4, _ = reduced_coefficients(c)
    return SpecialQuartic(Fraction(a0, d), Fraction(s, d * d), -1 if s else 0,
                          Fraction(a2, d), Fraction(a4, d))


def from_bcde(b: BcdeParams) -> CyclicParams:
    """Coefficient conversion from the sigma-basis parameters (B, C, D, E)."""
    return CyclicParams(
        k=2 * b.B + b.C + b.E + 6,
        l=2 * b.C + b.D + b.E + 12 + 5 * b.B,
        m=b.B + 4,
        n=b.B + b.E + 4,
    )
