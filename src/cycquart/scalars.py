"""Exact scalar arithmetic.

Two scalar domains are used throughout the package:

* ``fractions.Fraction`` -- arbitrary-precision rationals.  Python's
  ``Fraction`` already keeps the canonical form (coprime numerator and
  positive denominator), so equal values always have identical
  representations.
* :class:`QuadExt` -- elements ``u + v*sqrt(R)`` of the real quadratic
  extension Q(sqrt(R)) with a fixed positive rational radicand ``R``.
  The package builds them only for an irrational sqrt(R); the sign is
  exact for any positive ``R``, and the one inverse, ``reciprocal``, also
  needs ``R`` to be a non-square.

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
    "exact_rational",
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


def exact_rational(value) -> Fraction:
    """``Fraction(value)`` for an int, a rational string or another exact
    rational; TypeError for a float, whose binary value is seldom the number
    it was written as (0.1 is 3602879701896397/36028797018963968)."""
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; give an exact rational such as '1/10'")
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    """Serialize a rational as :func:`parse_rational` reads it, at any size,
    though ``parse_rational`` refuses a literal past the interpreter's digit
    limit: the limit guards input, and a witness's value can exceed it."""
    num, den = value.numerator, value.denominator
    return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def _digits(n: int) -> str:
    """``str(n)`` for an int of any size; one ``str`` call if it is short."""
    if n.bit_length() <= 2000:  # at most 603 digits, under any limit (>= 640)
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of the digits of n
    hi, lo = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + _digits(hi) + _digits(lo).zfill(k)


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

    The radicand is carried per value, must be positive, and must agree
    between the operands of binary operations and of ``==``; plain
    rationals are coerced on demand.  A ``Fraction`` argument is stored as
    given, any other is converted.  The sign is exact for any positive
    radicand; ``reciprocal`` also needs it to be a non-square, so that a
    value is zero exactly when its norm is.
    """

    __slots__ = ("u", "v", "radicand")

    def __init__(self, u, v, radicand) -> None:
        if type(u) is not Fraction:
            u = Fraction(u)
        if type(v) is not Fraction:
            v = Fraction(v)
        if type(radicand) is not Fraction:
            radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError(f"radicand must be positive: {radicand}")
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

    # -- field structure -------------------------------------------------

    def reciprocal(self) -> "QuadExt":
        """The inverse, the conjugate over the rational norm; for a
        non-square radicand, norm 0 means value 0."""
        nrm = self.norm()
        if nrm == 0:
            raise ZeroDivisionError("reciprocal of a QuadExt value of norm 0")
        return QuadExt(self.u / nrm, -self.v / nrm, self.radicand)

    def norm(self) -> Fraction:
        """The product with the conjugate: u**2 - v**2 * radicand."""
        return self.u * self.u - self.v * self.v * self.radicand

    def sign(self) -> int:
        """Exact sign of the real value u + v*sqrt(radicand)."""
        su = sgn(self.u)
        sv = sgn(self.v)
        if sv == 0:
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

    def __eq__(self, other):
        """Value equality within one radicand."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() == 0

    def __repr__(self) -> str:
        return f"QuadExt({self.u!r}, {self.v!r}, {self.radicand!r})"


# -- the sign over both scalar domains ---------------------------------------


def sgn(x) -> int:
    """Exact sign of a Fraction, int, or QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)
