"""Exact scalar arithmetic.

Two scalar domains are used throughout the package:

* ``fractions.Fraction`` -- arbitrary-precision rationals.  Python's
  ``Fraction`` already keeps the canonical form (coprime numerator and
  positive denominator), so equal values always have identical
  representations.
* :class:`QuadExt` -- elements ``u + v*sqrt(R)`` of the real quadratic
  extension Q(sqrt(R)) with a fixed rational radicand ``R >= 0``.

A polynomial keeps each coefficient in its own domain, and a rational
operand is coerced into the radicand of the ``QuadExt`` it meets.
:func:`sgn` decides the sign in either domain exactly, by rational
arithmetic only (no floating point, no root isolation).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "Fraction",
    "QuadExt",
    "parse_rational",
    "format_rational",
    "is_perfect_square",
    "rational_sqrt",
    "sgn",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal such as ``-3/7`` or ``12``.

    Floating-point and scientific notation are rejected: exact contexts
    must never receive approximate input.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Serialize a rational so that :func:`parse_rational` round-trips it."""
    return str(value)


def is_perfect_square(value: Fraction) -> bool:
    """True iff ``value`` is the square of a rational."""
    if value < 0:
        return False
    n, d = value.numerator, value.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def rational_sqrt(value: Fraction) -> Fraction:
    """Exact nonnegative square root of a perfect-square rational."""
    if not is_perfect_square(value):
        raise ValueError(f"{value} is not a perfect square of a rational")
    return Fraction(math.isqrt(value.numerator), math.isqrt(value.denominator))


class QuadExt:
    """Immutable element ``u + v*sqrt(radicand)`` of Q(sqrt(radicand)).

    The radicand is carried per value and must agree between the operands
    of binary operations; plain rationals are coerced on demand.  A
    ``Fraction`` argument is stored as given, any other is converted.  A
    radicand that happens to be a perfect square is *not* simplified away --
    the sign logic is exact regardless of whether sqrt(R) is rational.
    """

    __slots__ = ("u", "v", "radicand")

    def __init__(self, u, v, radicand) -> None:
        if type(u) is not Fraction:
            u = Fraction(u)
        if type(v) is not Fraction:
            v = Fraction(v)
        if type(radicand) is not Fraction:
            radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError(f"negative radicand: {radicand}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.radicand != self.radicand:
                raise ValueError(
                    f"mismatched radicands: {self.radicand} vs {other.radicand}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.radicand)
        return NotImplemented

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.u + other.u, self.v + other.v, self.radicand)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.u - other.u, self.v - other.v, self.radicand)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadExt(-self.u, -self.v, self.radicand)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.u * other.u + self.v * other.v * self.radicand,
            self.u * other.v + self.v * other.u,
            self.radicand,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.sign() == 0:
            raise ZeroDivisionError("division by a QuadExt value of sign 0")
        nrm = other.norm()
        if nrm != 0:
            prod = self * other.conjugate()
            return QuadExt(prod.u / nrm, prod.v / nrm, self.radicand)
        # norm 0 with nonzero value forces a perfect-square radicand; divide
        # the underlying rational values directly.
        root = rational_sqrt(self.radicand)
        num = self.u + self.v * root
        den = other.u + other.v * root
        return QuadExt(num / den, 0, self.radicand)

    def __rtruediv__(self, other):
        lifted = self._coerce(other)
        if lifted is NotImplemented:
            return NotImplemented
        return lifted / self

    # -- field structure -------------------------------------------------

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.u, -self.v, self.radicand)

    def norm(self) -> Fraction:
        """The product with the conjugate: u**2 - v**2 * radicand."""
        return self.u * self.u - self.v * self.v * self.radicand

    def sign(self) -> int:
        """Exact sign of the real value u + v*sqrt(radicand)."""
        su = sgn(self.u)
        sv = sgn(self.v)
        if sv == 0 or self.radicand == 0:
            return su
        if su == 0:
            return sv
        if su == sv:
            return su
        # opposite signs: |u| against |v|*sqrt(R), settled by u**2 - v**2*R
        ns = sgn(self.norm())
        if ns == 0:
            return 0
        return su if ns > 0 else sv

    def is_zero(self) -> bool:
        return self.sign() == 0

    def to_fraction(self) -> Fraction:
        """The exact rational value, when one exists."""
        if self.v == 0:
            return self.u
        if is_perfect_square(self.radicand):
            return self.u + self.v * rational_sqrt(self.radicand)
        raise ValueError(f"{self} is irrational")

    # -- comparisons (value semantics) ------------------------------------

    def __eq__(self, other):
        """Value equality.  Across different radicands only rational values
        compare equal (sqrt(8) and 2*sqrt(2) stay in disjoint contexts)."""
        if isinstance(other, QuadExt) and other.radicand != self.radicand:
            try:
                return self.to_fraction() == other.to_fraction()
            except ValueError:
                return False
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() == 0

    def __hash__(self):
        try:
            return hash(self.to_fraction())
        except ValueError:
            return hash((self.u, self.v, self.radicand))

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other)!r}")
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        return f"QuadExt({self.u!r}, {self.v!r}, {self.radicand!r})"

    def __str__(self) -> str:
        if self.v == 0:
            return str(self.u)
        vpart = f"{self.v}*sqrt({self.radicand})"
        if self.u == 0:
            return vpart
        sep = "+" if self.v > 0 else "-"
        return f"{self.u} {sep} {abs(self.v)}*sqrt({self.radicand})"


# -- the sign over both scalar domains ---------------------------------------


def sgn(x) -> int:
    """Exact sign of a Fraction, int, or QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)
