"""Nonnegativity of the special quartic ``a0*x**4 + a1*x**3 + a2*x**2 + a4``.

The cubic-coefficient ``a1`` enters the four discriminants only through
``a1**2`` and ``a1**4``, so the quartic is represented by ``a1_squared``
(a rational) together with the sign of ``a1``.  That lets the same rule
serve rational test quartics and reduced quartics whose cubic coefficient
is ``-sqrt(R)`` with irrational ``sqrt(R)``: the whole decision stays in
rational arithmetic.  As a polynomial it is g itself (``to_unipoly``, in
Q(sqrt(R)) only for an irrational sqrt(R)) or the rational
p(u) = s**2 * g(u/sqrt(s)), s = R or, when R = 0, 1 (``to_unipoly_in_u``),
whose chain ``sturm_in_t`` builds over Q, to be read at u = sqrt(s)*t.

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
from functools import cached_property

from .scalars import QuadExt, exact_fields, exact_rational, is_perfect_square, rational_sqrt, sgn
from .unipoly import UniPoly, squarefree_sturm

__all__ = [
    "SpecialQuartic",
    "discriminants",
    "discriminants_of",
    "discriminant_cofactors",
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
        exact_fields(self, ("a0", "a1_squared", "a2", "a4"))
        if self.a1_squared < 0:
            raise ValueError("a1_squared must be nonnegative")
        if self.a1_sign not in (-1, 0, 1):
            raise ValueError("a1_sign must be -1, 0, or +1")
        if (self.a1_sign == 0) != (self.a1_squared == 0):
            raise ValueError("a1_sign must be 0 exactly when a1_squared is 0")

    @classmethod
    def from_a1(cls, a0, a1, a2, a4) -> "SpecialQuartic":
        a1 = exact_rational(a1)
        return cls(a0, a1 * a1, sgn(a1), a2, a4)

    def to_unipoly(self) -> UniPoly:
        """g(x) as a polynomial, rational whenever ``a1`` is; built once."""
        return self._g

    @cached_property
    def _g(self) -> UniPoly:
        if is_perfect_square(self.a1_squared):
            a1 = self.a1_sign * rational_sqrt(self.a1_squared)
        else:
            a1 = QuadExt(0, self.a1_sign, self.a1_squared)
        return UniPoly([self.a0, a1, self.a2, Fraction(0), self.a4])

    def to_unipoly_in_u(self) -> UniPoly:
        """p(u) = s**2 * g(u/sqrt(s)) = a0*u**4 + a1_sign*s*u**3 + a2*s*u**2
        + a4*s**2, s = ``a1_squared``, or 1 when that is 0, where p = g:
        rational, and p >= 0 on R iff g is."""
        s = self.a1_squared or Fraction(1)
        return UniPoly([self.a0, self.a1_sign * s, self.a2 * s, Fraction(0), self.a4 * s * s])

    def sturm_in_t(self) -> tuple:
        """``squarefree_sturm(p)`` of p = ``to_unipoly_in_u()``, over Q, and
        the map t -> u = sqrt(s)*t to read it at: a ``Fraction`` for a
        rational sqrt(s), else ``QuadExt(0, t, s)``.  Entry i at u is a
        positive multiple of entry i of g's own chain at t, so every sign
        count is g's; a squarefree p heads the chain, and p(u) = s**2*g(t)."""
        s = self.a1_squared or Fraction(1)
        if is_perfect_square(s):
            root = rational_sqrt(s)
            at = lambda t: root * t
        else:
            at = lambda t: QuadExt(0, t, s)
        return (*squarefree_sturm(self.to_unipoly_in_u()), at)


def discriminants(q: SpecialQuartic) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The explicit discriminants (D1, D2, D3, D4) of the special quartic.

    ``a1`` appears only at even powers, so all four values are rational
    even when ``a1`` itself is irrational.
    """
    if q.a0 == 0:
        raise ValueError("a0 must be nonzero")
    return discriminants_of(q.a0, q.a1_squared, q.a2, q.a4)


def discriminants_of(a0, s, a2, a4) -> tuple:
    """(D1, D2, D3, D4) from plain ``a0``, ``s = a1**2``, ``a2``, ``a4``:
    ``(a0**2, a0**2*E2, a0**2*E3, a0**2*a4*E4)`` with the cofactors of
    ``discriminant_cofactors``, in any ring."""
    e2, e3, e4 = discriminant_cofactors(a0, s, a2, a4)
    d1 = a0 * a0
    return d1, d1 * e2, d1 * e3, d1 * a4 * e4


def discriminant_cofactors(a0, s, a2, a4) -> tuple:
    """``(E2, E3, E4)`` with D2 = a0**2*E2, D3 = a0**2*E3 and
    D4 = a0**2*a4*E4, in any ring: the one place the special quartic's
    discriminants are written.  Each Ei is homogeneous in (a0, a1, a2, a4),
    of degree 2, 4 and 5, so scaling a0, a2, a4 by d > 0 and s by d**2
    multiplies E2, E3 and E4 by d**2, d**4 and d**5 and keeps their signs
    (``decider.clause_quotients`` divides by those powers); for a0 > 0 and
    a4 > 0 each has the sign of Di, so ``discriminant_rule`` reads the
    cofactors of g's integers as it would g's discriminants.
    """
    e2 = 3 * s - 8 * a0 * a2
    e3 = -4 * a0 * a2 ** 3 + 16 * a0 ** 2 * a2 * a4 + s * a2 ** 2 - 6 * a0 * s * a4
    e4 = (
        -27 * s ** 2 * a4
        + 16 * a0 * a2 ** 4
        - 128 * a0 ** 2 * a2 ** 2 * a4
        - 4 * s * a2 ** 3
        + 144 * a0 * a2 * s * a4
        + 256 * a0 ** 3 * a4 ** 2
    )
    return e2, e3, e4


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
