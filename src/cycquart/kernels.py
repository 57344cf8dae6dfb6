"""Exact integer face-grid sweep of the form.

The sweep falsifies PSD verdicts and finds witnesses; every point it
reports is re-checked with ``eval_form`` by its callers.  The form is
evaluated at integer points (d, i, j) after clearing denominators:

    E(d, i, j) = A*S4 + Bk*S22 + Bl*S211 + Bm*S31 + Bn*S13

where ``(A, Bk, Bl, Bm, Bn) = form.scaled_coefficients(c)``, so
sign(E) = sign(F(1, i/d, j/d)).  Python integers are unbounded, so no
coefficient size can overflow the sweep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .form import CyclicParams, eval_form, scaled_coefficients

__all__ = ["scaled_coefficients", "face_scan", "find_negative_on_faces"]


def face_scan(coeffs, d: int, skip_even: bool = False):
    """Scan the lattice face x = d, |i|, |j| <= d.

    Returns ``(found, ni, nj, evaluated)`` where ``(ni, nj)`` is the first
    scanned point with a negative value (0, 0 when none) and ``evaluated``
    counts the points scanned.  ``skip_even`` drops points with both
    coordinates even, which avoids rescanning points already covered by
    the face d/2.
    """
    A, Bk, Bl, Bm, Bn = coeffs
    d2 = d * d
    d3 = d2 * d
    d4 = d2 * d2
    evaluated = 0
    for i in range(-d, d + 1):
        i2 = i * i
        i3 = i2 * i
        i4 = i2 * i2
        for j in range(-d, d + 1):
            if skip_even and (i & 1) == 0 and (j & 1) == 0:
                continue
            j2 = j * j
            s4 = d4 + i4 + j2 * j2
            s22 = d2 * i2 + i2 * j2 + j2 * d2
            s211 = d * i * j * (d + i + j)
            s31 = d3 * i + i3 * j + j2 * j * d
            s13 = d * i3 + i * j2 * j + j * d3
            val = A * s4 + Bk * s22 + Bl * s211 + Bm * s31 + Bn * s13
            evaluated += 1
            if val < 0:
                return True, i, j, evaluated
    return False, 0, 0, evaluated


def find_negative_on_faces(
    c: CyclicParams,
    schedule: tuple[int, ...],
    budget: int,
) -> tuple[Optional[tuple[Fraction, Fraction, Fraction]], int]:
    """Sweep faces x = 1, y/x = i/d, z/x = j/d for the given denominators.

    Returns ``(point, evaluated)`` where ``point`` is an exact rational
    triple with ``F(point) < 0`` (re-checked with ``eval_form`` at the
    integer point (d, i, j), where F has the same sign) or None.  A face d
    whose half d/2 comes earlier in the schedule skips the points with both
    coordinates even: those are the points of face d/2.
    """
    coeffs = scaled_coefficients(c)
    spent = 0
    for idx, d in enumerate(schedule):
        if spent >= budget:
            break
        skip = d % 2 == 0 and d // 2 in schedule[:idx]
        found, i, j, evaluated = face_scan(coeffs, d, skip)
        spent += evaluated
        if found:
            point = (Fraction(1), Fraction(i, d), Fraction(j, d))
            value = eval_form(c, d, i, j)
            if value >= 0:
                raise AssertionError(
                    f"kernel reported a negative value at {point} but F(d, i, j) = {value}"
                )
            return point, spent
    return None, spent
