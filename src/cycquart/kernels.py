"""Exact integer face-grid sweep of the form.

The sweep falsifies PSD verdicts and finds witnesses.  The form is
evaluated at integer points (d, i, j) after clearing denominators:

    E(d, i, j) = A*S4 + Bk*S22 + Bl*S211 + Bm*S31 + Bn*S13

where ``(A, Bk, Bl, Bm, Bn) = form.scaled_coefficients(c)``, so
sign(E) = sign(F(1, i/d, j/d)).  The integer cyclic sums (S4, S22, S211,
S31, S13) of a point do not depend on the form, so a face is read from a
table of them built once (``tabulate``), and a scan costs five products
per point (``first_negative``).  A face is scanned whole, the points it
shares with a smaller face included; the witness search's probe points are
read the same way.  The point a sweep reports is re-checked by the sign of
``form.form_numerator`` at (d, i, j).  Python integers are unbounded, so
no coefficient size can overflow the sweep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Optional

from .form import CyclicParams, cyclic_sums, form_numerator, scaled_coefficients

__all__ = ["tabulate", "first_negative", "face_scan", "find_negative_on_faces"]


def tabulate(points) -> tuple:
    """``(label, S4, S22, S211, S31, S13)`` for each ``(label, (x, y, z))``
    of ``points``, an iterable of labelled integer points, in order: the
    rows ``first_negative`` reads."""
    # equal sums share one int: the 15680 sums of the largest face's rows
    # take 4840 distinct values, and the tables are kept for good
    shared: dict = {}
    return tuple(
        (label, *(shared.setdefault(v, v) for v in cyclic_sums(*point)))
        for label, point in points
    )


def first_negative(coeffs, rows):
    """``(label, evaluated)`` for the first row of ``tabulate`` at which
    ``A*S4 + Bk*S22 + Bl*S211 + Bm*S31 + Bn*S13 < 0``, with
    ``(A, Bk, Bl, Bm, Bn) = coeffs``, or ``(None, len(rows))`` when there
    is none; ``evaluated`` counts the rows read."""
    A, Bk, Bl, Bm, Bn = coeffs
    for evaluated, (label, s4, s22, s211, s31, s13) in enumerate(rows, 1):
        if A * s4 + Bk * s22 + Bl * s211 + Bm * s31 + Bn * s13 < 0:
            return label, evaluated
    return None, len(rows)


@cache
def _face_table(d: int) -> tuple:
    """The rows of face d, labelled ``(i, j)``, in scan order.  Built once
    per d; the two schedules in use, the witness faces (1, 2, 3, 4) and the
    falsifier's (32,), make five tables of 4389 rows in all, about 0.9 MB."""
    return tabulate(((i, j), (d, i, j)) for i in range(-d, d + 1) for j in range(-d, d + 1))


def face_scan(coeffs, d: int):
    """Scan the lattice face x = d, |i|, |j| <= d.

    Returns ``(found, ni, nj, evaluated)`` where ``(ni, nj)`` is the first
    scanned point with a negative value (0, 0 when none) and ``evaluated``
    counts the points scanned.
    """
    label, evaluated = first_negative(coeffs, _face_table(d))
    if label is None:
        return False, 0, 0, evaluated
    return True, *label, evaluated


def find_negative_on_faces(
    c: CyclicParams,
    schedule: tuple[int, ...],
    budget: int,
) -> tuple[Optional[tuple[Fraction, Fraction, Fraction]], int]:
    """Sweep faces x = 1, y/x = i/d, z/x = j/d for the given denominators.

    Returns ``(point, evaluated)`` where ``point`` is an exact rational
    triple with ``F(point) < 0`` (re-checked by the sign of
    ``form_numerator`` at the integer point (d, i, j), where F has the same
    sign) or None.  The budget is read only between faces, so a face begun
    under it runs to its first negative point or its end, and every point
    it scans is charged.
    """
    coeffs = scaled_coefficients(c)
    spent = 0
    for d in schedule:
        if spent >= budget:
            break
        found, i, j, evaluated = face_scan(coeffs, d)
        spent += evaluated
        if found:
            point = (Fraction(1), Fraction(i, d), Fraction(j, d))
            numerator = form_numerator(c, d, i, j)
            if numerator >= 0:
                raise AssertionError(
                    f"kernel reported a negative value at {point} but the numerator "
                    f"of F(d, i, j) is {numerator}"
                )
            return point, spent
    return None, spent
