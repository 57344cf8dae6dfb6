"""Seeded input generators for the benchmark workloads.

Everything here is plain ``fractions``/``random`` code: generating inputs
never imports ``cycquart``, so the program under test only ever sees the
finished coefficient tuples ``(k, l, m, n)`` of

    F = S4 + k*S22 + l*S211 + m*S31 + n*S13

with the cyclic sums S4 = sum x**4, S22 = sum x**2*y**2,
S211 = xyz*(x+y+z), S31 = sum x**3*y and S13 = sum x*y**3.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from typing import Iterator

# Vasc's inequality and its mirror (y <-> z): PSD, with f3 = 1+k+l+m+n = 0,
# so both touch zero at (1, 1, 1) and at a second, irrational point.
VASC_BASES = (
    (Fraction(2), Fraction(0), Fraction(-3), Fraction(0)),
    (Fraction(2), Fraction(0), Fraction(0), Fraction(-3)),
)
EPSILON_EXPONENTS = (1, 2, 3, 4, 5, 6)
# f3 after perturbing: kept at 0, or nudged up by eps**2 or eps**3
F3_MODES = ("zero", "eps2", "eps3")


def form_value(params, x, y, z) -> Fraction:
    """Exact F(x, y, z) for params = (k, l, m, n); independent of cycquart."""
    k, l, m, n = params
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    s4 = x**4 + y**4 + z**4
    s22 = x * x * y * y + y * y * z * z + z * z * x * x
    s211 = x * y * z * (x + y + z)
    s31 = x**3 * y + y**3 * z + z**3 * x
    s13 = x * y**3 + y * z**3 + z * x**3
    return s4 + k * s22 + l * s211 + m * s31 + n * s13


def _small_fraction(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def vasc_perturbation(base, exponent: int, mode: str, direction):
    """``base + eps*direction``, then l nudged so that f3 is set by ``mode``.

    The direction (dk, dl, dm, dn) must sum to zero, so that it leaves
    f3 = 0; the nudge on l then sets f3 to 0, eps**2 or eps**3.  Returns
    ``(params, designed_f3)``.
    """
    eps = Fraction(1, 10**exponent)
    nudge = {"zero": Fraction(0), "eps2": eps**2, "eps3": eps**3}[mode]
    k, l, m, n = (b + eps * d for b, d in zip(base, direction))
    return (k, l + nudge, m, n), nudge


def random_direction(rng: random.Random) -> tuple:
    """A nonzero (dk, dl, dm, dn) of small rationals summing to zero."""
    while True:
        dk, dm, dn = (_small_fraction(rng, 4, 3) for _ in range(3))
        if dk or dm or dn:
            return dk, -(dk + dm + dn), dm, dn


def boundary_inputs(seed: int) -> Iterator[tuple]:
    """Endless ``decide_boundary`` requests: ``(params, designed_f3)``.

    Requests cycle through every (base, eps, f3 mode) cell in a fixed
    order, so any run of a few hundred requests has the same mix.  Each
    direction is used with both signs, one request after the other: to
    first order in eps the pair straddles the PSD boundary, so close to
    half of the requests are NotPSD whatever the seed.
    """
    rng = random.Random(seed)
    cells = [
        (base, exponent, mode)
        for base in VASC_BASES
        for exponent in EPSILON_EXPONENTS
        for mode in F3_MODES
    ]
    for index in count():
        cell = cells[index % len(cells)]
        direction = random_direction(rng)
        yield vasc_perturbation(*cell, direction)
        yield vasc_perturbation(*cell, tuple(-d for d in direction))


# -- sums of squares ----------------------------------------------------------

# monomials x**i * y**j * z**l of a ternary quadratic, as exponent triples
_QUADRATIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1))


def _square(poly: dict) -> dict:
    out: dict = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _cyclic_sum(poly: dict) -> dict:
    """p(x,y,z) + p(y,z,x) + p(z,x,y), as a monomial dict."""
    out: dict = {}
    for (i, j, l), c in poly.items():
        # substituting (x, y, z) -> (y, z, x) maps x^i y^j z^l to x^l y^i z^j
        for key in ((i, j, l), (l, i, j), (j, l, i)):
            out[key] = out.get(key, 0) + c
    return out


def sos_params(quadratic) -> tuple:
    """(k, l, m, n) of sum_cyc q**2 scaled so its x**4 coefficient is 1.

    ``quadratic`` holds the coefficients of x**2, y**2, z**2, xy, yz, zx;
    at least one of the first three must be nonzero.
    """
    poly = _cyclic_sum(_square(dict(zip(_QUADRATIC_MONOMIALS, quadratic))))
    lead = poly[(4, 0, 0)]
    if lead == 0:
        raise ValueError("the x**4 coefficient of the sum of squares vanishes")
    return tuple(
        Fraction(poly.get(key, 0)) / lead
        for key in ((2, 2, 0), (2, 1, 1), (3, 1, 0), (1, 3, 0))
    )


def random_quadratic(rng: random.Random) -> tuple:
    """Six small rational coefficients with a nonzero square part."""
    while True:
        q = tuple(_small_fraction(rng, 5, 4) for _ in range(6))
        if any(q[:3]):
            return q


def sos_inputs(seed: int) -> Iterator[tuple]:
    """Endless ``oracle_sos`` requests: ``(params, quadratic)``; all PSD."""
    rng = random.Random(seed)
    while True:
        q = random_quadratic(rng)
        yield sos_params(q), q
