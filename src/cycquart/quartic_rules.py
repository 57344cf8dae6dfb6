"""Nonnegativity of the special quartic ``a0*x**4 + a1*x**3 + a2*x**2 + a4``.

The cubic-coefficient ``a1`` enters the four discriminants only through
``a1**2`` and ``a1**4``, so the quartic is represented by ``a1_squared``
(a rational) together with the sign of ``a1``.  That lets the same rule
serve rational test quartics and reduced quartics whose cubic coefficient
is ``-sqrt(R)`` with irrational ``sqrt(R)``: the whole decision stays in
rational arithmetic.  Its polynomials, g and the rational p(u) = w**2 *
g(u/sqrt(w)) with p's Sturm chain, are written once, from ints or Fractions
(a0, s, sign, a2, a4): ``g_polynomial``, ``p_polynomial``, ``p_sturm_in_t``,
each multiple of a square root in them by ``scalars.sqrt_multiplier``.

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

from .scalars import exact_fields, exact_rational, sgn, sqrt_multiplier
from .unipoly import UniPoly, squarefree_sturm

__all__ = [
    "SpecialQuartic",
    "discriminants",
    "discriminants_of",
    "discriminant_cofactors",
    "g_polynomial",
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
        return g_polynomial(self.a0, self.a1_squared, self.a1_sign, self.a2, self.a4)

    def sturm_in_t(self) -> tuple:
        """p(u)'s chain over Q and the map t -> u to read it at (``p_sturm_in_t``)."""
        return p_sturm_in_t(self.a0, self.a1_squared, self.a1_sign, self.a2, self.a4)


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


def g_polynomial(a0, s, sign, a2, a4) -> UniPoly:
    """g = a0*t**4 + sign*sqrt(s)*t**3 + a2*t**2 + a4 in the type of its int or
    Fraction fields, but for its cubic coefficient in Q(sqrt(s)) at an irrational sqrt(s)."""
    return UniPoly([a0, sqrt_multiplier(s)(sign), a2, 0 * a4, a4])


def p_polynomial(a0, s, sign, a2, a4) -> UniPoly:
    """p(u) = w**2*g(u/sqrt(w)) = a0*u**4 + sign*s*u**3 + a2*w*u**2 + a4*w**2,
    w = s or, at s = 0, 1 (p = g): in the fields' type, p >= 0 on R iff g is."""
    w = s or s + 1
    return UniPoly([a0, sign * s, a2 * w, 0 * a4, a4 * w * w])


def p_sturm_in_t(a0, s, sign, a2, a4) -> tuple:
    """``squarefree_sturm`` of that p and the map t -> u = sqrt(w)*t: entry i
    at u is a positive multiple of entry i of g's chain at t, so every sign
    count is g's; a squarefree p heads the chain, as p(u) = w**2*g(t)."""
    return (*squarefree_sturm(p_polynomial(a0, s, sign, a2, a4)), sqrt_multiplier(s or s + 1))


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
