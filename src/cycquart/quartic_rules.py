"""Nonnegativity of the special quartic ``a0*x**4 + a1*x**3 + a2*x**2 + a4``.

The cubic-coefficient ``a1`` enters the four discriminants only through
``a1**2`` and ``a1**4``, so the quartic is represented by ``a1_squared``
(a rational) together with the sign of ``a1``.  That lets the same rule
serve rational test quartics and reduced quartics whose cubic coefficient
is ``-sqrt(R)`` with irrational ``sqrt(R)``: the whole decision stays in
rational arithmetic.

For ``a0 > 0``, ``a4 > 0``, ``a1 != 0``, the quartic is nonnegative on all
of R iff

    D4 > 0 and (D2 < 0 or D3 < 0),    or    D4 = 0 and D3 < 0.

The rule is provably wrong for ``a1 = 0`` (biquadratics can be nonnegative
with D4 = D3 = 0, e.g. (x**2-1)**2), so that hypothesis is enforced, not
patched; degenerate shapes belong to the caller's case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import QuadExt, is_perfect_square, rational_sqrt, sgn
from .unipoly import UniPoly

__all__ = [
    "SpecialQuartic",
    "discriminants",
    "discriminants_of",
    "discriminant_rule",
    "is_nonneg",
]


@dataclass(frozen=True)
class SpecialQuartic:
    """``a0*x**4 + a1*x**3 + a2*x**2 + a4`` with ``a1 = a1_sign*sqrt(a1_squared)``."""

    a0: Fraction
    a1_squared: Fraction
    a1_sign: int
    a2: Fraction
    a4: Fraction

    def __post_init__(self):
        for name in ("a0", "a1_squared", "a2", "a4"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        if self.a1_squared < 0:
            raise ValueError("a1_squared must be nonnegative")
        if self.a1_sign not in (-1, 0, 1):
            raise ValueError("a1_sign must be -1, 0, or +1")
        if (self.a1_sign == 0) != (self.a1_squared == 0):
            raise ValueError("a1_sign must be 0 exactly when a1_squared is 0")

    @classmethod
    def from_a1(cls, a0, a1, a2, a4) -> "SpecialQuartic":
        a1 = Fraction(a1)
        return cls(Fraction(a0), a1 * a1, sgn(a1), Fraction(a2), Fraction(a4))

    def to_unipoly(self) -> UniPoly:
        """The quartic as a polynomial, rational whenever ``a1`` is."""
        if self.a1_sign == 0:
            a1 = Fraction(0)
        elif is_perfect_square(self.a1_squared):
            a1 = self.a1_sign * rational_sqrt(self.a1_squared)
        else:
            a1 = QuadExt(0, self.a1_sign, self.a1_squared)
        return UniPoly([self.a0, a1, self.a2, Fraction(0), self.a4])


def discriminants(q: SpecialQuartic) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The explicit discriminants (D1, D2, D3, D4) of the special quartic.

    ``a1`` appears only at even powers, so all four values are rational
    even when ``a1`` itself is irrational.
    """
    if q.a0 == 0:
        raise ValueError("a0 must be nonzero")
    return discriminants_of(q.a0, q.a1_squared, q.a2, q.a4)


def discriminants_of(a0, s, a2, a4) -> tuple:
    """(D1, D2, D3, D4) from plain ``a0``, ``s = a1**2``, ``a2``, ``a4``.

    Works on ``int`` and ``Fraction`` alike.  Each Di is homogeneous in
    (a0, a1, a2, a4), of degree 2, 4, 6 and 8, so scaling a0, a2, a4 by
    d > 0 and s by d**2 multiplies Di by a positive power of d and keeps
    its sign: integer coefficients with cleared denominators decide the
    same branch of ``discriminant_rule``.
    """
    d1 = a0 ** 2
    d2 = -8 * a0 ** 3 * a2 + 3 * s * a0 ** 2
    d3 = (
        -4 * a0 ** 3 * a2 ** 3
        + 16 * a0 ** 4 * a2 * a4
        + a0 ** 2 * s * a2 ** 2
        - 6 * a0 ** 3 * s * a4
    )
    d4 = (
        -27 * a0 ** 2 * s ** 2 * a4 ** 2
        + 16 * a0 ** 3 * a2 ** 4 * a4
        - 128 * a0 ** 4 * a2 ** 2 * a4 ** 2
        - 4 * a0 ** 2 * s * a2 ** 3 * a4
        + 144 * a0 ** 3 * a2 * s * a4 ** 2
        + 256 * a0 ** 5 * a4 ** 3
    )
    return d1, d2, d3, d4


def discriminant_rule(d2: Fraction, d3: Fraction, d4: Fraction) -> tuple[bool, str]:
    """The nonnegativity rule on the discriminants, and the branch it took.

    Valid only under the hypotheses of ``is_nonneg``, which callers check.
    """
    if d4 > 0:
        if d2 < 0:
            return True, "D4>0/D2<0"
        if d3 < 0:
            return True, "D4>0/D3<0"
        return False, "D4>0/fail"
    if d4 == 0:
        return (True, "D4=0/D3<0") if d3 < 0 else (False, "D4=0/fail")
    return False, "D4<0"


def is_nonneg(q: SpecialQuartic) -> bool:
    """Nonnegativity on all of R, under a0 > 0, a4 > 0, a1 != 0."""
    if not (q.a0 > 0 and q.a4 > 0 and q.a1_squared != 0):
        raise ValueError("rule applies only for a0 > 0, a4 > 0, a1 != 0")
    _, d2, d3, d4 = discriminants(q)
    return discriminant_rule(d2, d3, d4)[0]
