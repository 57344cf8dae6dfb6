"""Three independent decision procedures for the cyclic ternary quartic.

* ``decide_closed_form`` evaluates a quantifier-free formula in the
  coefficients (k, l, m, n) directly.  Three textual variants are shipped
  because the source formula is self-contradictory on boundary strata: the
  ``theorem`` variant uses the strict comparisons ``f6 < 0 or f7 < 0``, the
  ``proof`` variant the non-strict ones, and the ``corrected`` variant adds
  the missing guard ``k + m - 1 >= 0`` to the degenerate-radicand clause
  (see ``decide_closed_form``).

* ``decide_structural`` reduces to the univariate quartic g(t) and decides
  it case by case: biquadratic rules when the radicand R vanishes, a
  quadratic-factor rule when the constant term vanishes, and the special
  quartic discriminant rule otherwise.  It reads only the four numbers
  (a0, a1**2 = R, a2, a4) of g, in integer arithmetic: each is
  homogeneous in (1, k, l, m, n), so clearing the common denominator of
  (k, l, m, n) once keeps every sign exact.

* ``decide_oracle`` runs the everywhere-nonnegativity oracle (squarefree
  decomposition plus Sturm counting) on ``reduce_to_g(c).to_unipoly()``,
  over Q when sqrt(R) is rational and otherwise with sqrt(R) its one
  coefficient in Q(sqrt(R)) -- no
  discriminant sequences, no clause polynomials, hence an independent
  implementation path.

``find_witness`` produces exact rational points with F < 0 for forms that
are not positive semidefinite: probe points, then integer face grids, then
a seeded search on the equality locus of the reduction.  No float is used
anywhere: the seeded stage finds an exact t* with g(t*) < 0 by Sturm
bisection, then the point of the locus over t* by sign bisection of a cubic
between its rational critical points.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from . import kernels
from .form import CyclicParams, eval_form, r_range, radicand, reduce_to_g, scaled_coefficients
from .quartic_rules import discriminant_rule, discriminants_of
from .roots import is_nonneg_everywhere
from .scalars import sgn
from .unipoly import UniPoly, chain_variations, count_sign_changes, squarefree_sturm

__all__ = [
    "ClausePolynomials",
    "CLAUSE_POLYNOMIAL_NAMES",
    "Verdict",
    "CLOSED_FORM_VARIANTS",
    "eval_f5",
    "eval_polys",
    "decide_closed_form",
    "closed_form_verdict",
    "decide_structural",
    "decide_oracle",
    "decide",
    "find_witness",
    "attach_witness",
    "DEFAULT_WITNESS_BUDGET",
]

CLOSED_FORM_VARIANTS = ("theorem", "proof", "corrected")

DEFAULT_WITNESS_BUDGET = 40000


@dataclass(frozen=True, slots=True)
class ClausePolynomials:
    """The eleven coefficient polynomials of the closed-form criterion.

    f1 = F(1,-1,0) and 3*f3 = F(1,1,1) are necessary-condition values;
    f2 and g4 determine the radicand through R = 27*g4**2 + f2**2; f5, f6,
    f7 are proportional (by positive factors, given f1 > 0 and f3 > 0) to
    the discriminants D4, D2, D3 of the reduced quartic g.  All of f1..f7
    are symmetric under swapping m and n, which swapping (y, z) in the form
    forces.
    """

    f1: Fraction
    f2: Fraction
    f3: Fraction
    f4: Fraction
    f5: Fraction
    f6: Fraction
    f7: Fraction
    g1: Fraction
    g2: Fraction
    g3: Fraction
    g4: Fraction


CLAUSE_POLYNOMIAL_NAMES = tuple(f.name for f in fields(ClausePolynomials))


@dataclass(frozen=True, slots=True)
class Verdict:
    """Decision outcome; a witness, when present, satisfies F(witness) < 0
    exactly and forces ``is_psd`` to be False."""

    is_psd: bool
    method: str
    fired_clause: str
    witness: Optional[tuple[Fraction, Fraction, Fraction]] = None
    witness_value: Optional[Fraction] = None

    def __post_init__(self):
        if self.witness is not None and self.is_psd:
            raise ValueError("a witness contradicts a PSD verdict")


def eval_f5(c: CyclicParams) -> Fraction:
    """Exact value of f5 alone, proportional to the discriminant D4 of g."""
    k, l, m, n = c.k, c.l, c.m, c.n
    return (
        -4 * k**3 * m**2 - 4 * k**3 * n**2 - 4 * k**2 * l * m**2 + 4 * k**2 * l * m * n
        - 4 * k**2 * l * n**2
        - k * l**2 * m**2 + 4 * k * l**2 * m * n - k * l**2 * n**2 + 8 * k * l * m**3
        + 6 * k * l * m**2 * n + 6 * k * l * m * n**2
        + 8 * k * l * n**3 - 2 * k * m**4 + 10 * k * m**3 * n - 3 * k * m**2 * n**2
        + 10 * k * m * n**3 - 2 * k * n**4
        + l**3 * m * n - 9 * l**2 * m**2 * n - 9 * l**2 * m * n**2 + l * m**4
        + 13 * l * m**3 * n - 3 * l * m**2 * n**2
        + 13 * l * m * n**3 + l * n**4 - 7 * m**5 - 8 * m**4 * n - 16 * m**3 * n**2
        - 16 * m**2 * n**3 - 8 * m * n**4
        - 7 * n**5 + 16 * k**4 + 16 * k**3 * l - 32 * k**2 * l * m - 32 * k**2 * l * n
        + 12 * k**2 * m**2
        - 48 * k**2 * m * n + 12 * k**2 * n**2 - 4 * k * l**3 + 4 * k * l**2 * m
        + 4 * k * l**2 * n - 12 * k * l * m**2
        - 60 * k * l * m * n - 12 * k * l * n**2 + 40 * k * m**3 + 48 * k * m**2 * n
        + 48 * k * m * n**2 + 40 * k * n**3
        - l**4 + 10 * l**3 * m + 10 * l**3 * n - 21 * l**2 * m**2 + 12 * l**2 * m * n
        - 21 * l**2 * n**2
        + 10 * l * m**3 + 48 * l * m**2 * n + 48 * l * m * n**2 + 10 * l * n**3
        - 17 * m**4 - 14 * m**3 * n
        - 21 * m**2 * n**2 - 14 * m * n**3 - 17 * n**4 - 16 * k**3 + 32 * k**2 * l
        - 48 * k**2 * m
        - 48 * k**2 * n + 80 * k * l**2 - 48 * k * l * m - 48 * k * l * n + 96 * k * m**2
        + 48 * k * m * n + 96 * k * n**2
        - 24 * l**3 - 24 * l**2 * m - 24 * l**2 * n + 24 * l * m**2 - 24 * l * m * n
        + 24 * l * n**2 - 16 * m**3
        - 48 * m**2 * n - 48 * m * n**2 - 16 * n**3 - 96 * k**2 - 64 * k * l + 64 * k * m
        + 64 * k * n + 96 * l**2
        - 32 * l * m - 32 * l * n - 16 * m**2 - 32 * m * n - 16 * n**2 + 64 * k
        - 128 * l + 64 * m + 64 * n + 128
    )


def eval_polys(c: CyclicParams) -> ClausePolynomials:
    """Exact values of f1..f7 and g1..g4 at the given coefficients."""
    k, l, m, n = c.k, c.l, c.m, c.n
    f1 = 2 + k - m - n
    f2 = 4 * k + m + n - 8 - 2 * l
    f3 = 1 + k + m + n + l
    f4 = 3 * (1 + k) - m ** 2 - n ** 2 - m * n
    f5 = eval_f5(c)
    f6 = (
        4 * k**2 + 2 * k * l - 4 * k * m - 4 * k * n + l**2 - 7 * l * m - 7 * l * n
        + 13 * m**2 - m * n + 13 * n**2 - 40 * k + 20 * l + 8 * m + 8 * n - 32
    )
    f7 = (
        -768 + 352 * k**2 - 332 * l**2 + 180 * n**2 + 180 * m**2 + 56 * k**3 - 8 * k**4
        + 14 * l**3 + 132 * n**3 + 132 * m**3 + 42 * n**4 + 42 * m**4 - 480 * k
        - 60 * l * m * n - 192 * n
        + 32 * k * l * m * n - 192 * m + 912 * l + l**4 - 354 * k * m * n
        + 158 * k * l * n + 158 * k * l * m + 26 * k**2 * m * n
        - 11 * k * l * n**2 + 22 * k**2 * l * m + 22 * k**2 * l * n - 45 * k * m * n**2
        - 90 * l * m**2 * n - 45 * k * m**2 * n
        - 11 * k * l * m**2 + 23 * l**2 * m * n - 90 * l * m * n**2 + k * l**2 * m
        + k * l**2 * n + 36 * m * n - 480 * k * m + 592 * k * l
        - 480 * k * n - 60 * l * m - 60 * l * n + 8 * k**3 * m + 8 * k**3 * n
        - 20 * k**2 * l + 32 * k**2 * n + 32 * k**2 * m
        - 12 * k**3 * l + 234 * m * n**2 + 234 * m**2 * n - 192 * l * n**2
        - 258 * k * n**2 - 192 * l * m**2 - 258 * k * m**2
        + 116 * l**2 * m + 116 * l**2 * n + 87 * m**3 * n + 87 * m * n**3
        - 15 * k * n**3 + 90 * m**2 * n**2 - 30 * l * n**3
        - 15 * k * m**3 - 30 * l * m**3 + 25 * l**2 * m**2 + 25 * l**2 * n**2
        - 14 * k**2 * m**2 - 14 * k**2 * n**2
        - 146 * k * l**2 - 10 * l**3 * m - 10 * l**3 * n - 2 * k**2 * l**2 + 3 * k * l**3
    )
    g1 = k - 2 * m + 2
    g2 = 4 * k - m ** 2 - 8
    g3 = 8 + m - 2 * k
    g4 = m - n
    return ClausePolynomials(f1, f2, f3, f4, f5, f6, f7, g1, g2, g3, g4)


def decide_closed_form(c: CyclicParams, variant: str = "theorem") -> Verdict:
    """Evaluate the quantifier-free formula at ``c``; see ``closed_form_verdict``."""
    return closed_form_verdict(c, eval_polys(c), variant)


def closed_form_verdict(c: CyclicParams, P: ClausePolynomials, variant: str) -> Verdict:
    """The quantifier-free formula read off the clause polynomials ``P`` of
    ``c``; three disjuncts.

    1. Degenerate radicand (g4 = 0 and f2 = 0):
       (g1 = 0 and 1 <= m <= 4) or (g1 > 0 and g2 >= 0) or (g1 > 0 and
       g3 >= 0); the ``corrected`` variant additionally requires
       k + m - 1 >= 0 in the last option.  Without that guard the formula
       wrongly accepts forms whose reduced quartic has a negative constant
       term (the identity 4*g1*(k+m-1) - g3**2 = 9*g2 shows the g2 option
       is the discriminant condition, while the g3 option needs the
       constant sign separately).
    2. f1 > 0 and f3 = 0 and f4 >= 0.
    3. f1 > 0 and f3 > 0 and (f5 > 0 and (f6 < 0 or f7 < 0)) or
       (f5 = 0 and f7 < 0); the ``proof`` variant uses f6 <= 0 or f7 <= 0.
    """
    if variant not in CLOSED_FORM_VARIANTS:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    method = f"closed_form_{variant}"
    m = c.m

    if P.g4 == 0 and P.f2 == 0:
        if P.g1 == 0 and 1 <= m <= 4:
            return Verdict(True, method, "case1/g1=0/1<=m<=4")
        if P.g1 > 0 and P.g2 >= 0:
            return Verdict(True, method, "case1/g1>0/g2>=0")
        if P.g1 > 0 and P.g3 >= 0:
            if variant != "corrected":
                return Verdict(True, method, "case1/g1>0/g3>=0")
            if c.k + m - 1 >= 0:
                return Verdict(True, method, "case1/g1>0/g3>=0/k+m-1>=0")
    else:
        if P.f1 > 0 and P.f3 == 0 and P.f4 >= 0:
            return Verdict(True, method, "case2/f1>0/f3=0/f4>=0")
        if P.f1 > 0 and P.f3 > 0:
            if variant == "proof":
                if P.f5 > 0 and (P.f6 <= 0 or P.f7 <= 0):
                    return Verdict(True, method, "case3/f5>0/f6<=0|f7<=0")
            else:
                if P.f5 > 0 and (P.f6 < 0 or P.f7 < 0):
                    return Verdict(True, method, "case3/f5>0/f6<0|f7<0")
            if P.f5 == 0 and P.f7 < 0:
                return Verdict(True, method, "case3/f5=0/f7<0")
    return Verdict(False, method, "none")


def _biquadratic_nonneg(a, b, cc) -> tuple[bool, str]:
    """Nonnegativity of a*t**4 + b*t**2 + cc on all of R; reads only signs
    and ``b*b <= 4*a*cc``, so (a, b, cc) may carry any common positive
    factor."""
    if a < 0:
        return False, "lead<0"
    if a == 0:
        ok = b >= 0 and cc >= 0
        return ok, "lead=0/b>=0,c>=0" if ok else "lead=0/fail"
    if cc < 0:
        return False, "c<0"
    if b >= 0:
        return True, "c>=0/b>=0"
    ok = b * b <= 4 * a * cc
    return ok, "c>=0/b<0/disc<=0" if ok else "c>=0/b<0/disc>0"


def decide_structural(c: CyclicParams) -> Verdict:
    """Case analysis on the reduced quartic g(t), in integer arithmetic.

    R = 0 collapses g to a biquadratic; a vanishing constant term f3
    collapses the decision to a quadratic factor; otherwise (f3 > 0,
    f1 > 0) the special-quartic discriminant rule applies with
    a1_squared = R.  Only the four numbers of g are read, scaled to the
    integers of d*g: with ``(d, K, L, M, N) = scaled_coefficients(c)``,
    ``(a0, s, a2, a4) = (3*d*f1, d**2*R, 3*d*(4+m+n-l), d*f3)``.  Each rule
    reads only signs of expressions homogeneous in them, so every branch
    is taken exactly as over Q.
    """
    d, K, L, M, N = scaled_coefficients(c)
    method = "structural"
    a0 = 3 * (2 * d + K - M - N)
    s = 27 * (M - N) ** 2 + (4 * K + M + N - 8 * d - 2 * L) ** 2
    a2 = 3 * (4 * d + M + N - L)
    a4 = d + K + M + N + L

    if s == 0:
        # here (a0, a2, a4) = 3*d*(g1, g3, k+m-1)
        ok, tag = _biquadratic_nonneg(a0, a2, a4)
        return Verdict(ok, method, f"R=0/biquadratic/{tag}")
    if a4 < 0:
        return Verdict(False, method, "f3<0/g(0)<0")
    if a4 == 0:
        # g = t**2 * (a0*t**2 - sqrt(R)*t + a2)
        if a0 <= 0:
            return Verdict(False, method, "f3=0/quadratic/f1<=0")
        ok = s <= 4 * a0 * a2
        tag = "f3=0/quadratic/disc<=0" if ok else "f3=0/quadratic/disc>0"
        return Verdict(ok, method, tag)
    if a0 <= 0:
        return Verdict(False, method, "f3>0/f1<=0")
    _, d2, d3, d4 = discriminants_of(a0, s, a2, a4)
    ok, rule = discriminant_rule(d2, d3, d4)
    return Verdict(ok, method, f"f3>0/quartic-rule/{rule}")


def decide_oracle(c: CyclicParams) -> Verdict:
    """Sturm-based oracle: everywhere-nonnegativity of g, over Q when
    sqrt(R) is rational and over Q(sqrt(R)) otherwise."""
    g = reduce_to_g(c).to_unipoly()
    ok = is_nonneg_everywhere(g)
    return Verdict(ok, "sturm_oracle", "g-nonneg" if ok else "g-negative")


_METHODS = {
    "structural": decide_structural,
    "oracle": decide_oracle,
    "closed-theorem": lambda c: decide_closed_form(c, "theorem"),
    "closed-proof": lambda c: decide_closed_form(c, "proof"),
    "closed-corrected": lambda c: decide_closed_form(c, "corrected"),
}


def decide(c: CyclicParams, method: str = "structural") -> Verdict:
    """Dispatch by method name (CLI surface)."""
    try:
        impl = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown decision method {method!r}") from None
    return impl(c)


# -- witness search -----------------------------------------------------------

# cheap necessary-condition probes: (1,1,1) has F = 3*f3, (1,-1,0) has F = f1
_PROBE_POINTS = (
    (1, 1, 1),
    (1, -1, 0),
    (1, 1, 0),
    (1, 0, -1),
    (1, -1, 1),
    (1, 1, -1),
    (2, -1, -1),
    (1, -2, 1),
    (0, 1, -1),
    (1, 2, -2),
)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount

    def spend(self, amount: int = 1) -> bool:
        self.left -= amount
        return self.left >= 0


def _find_negative_t(g: UniPoly, budget: _Budget) -> Optional[Fraction]:
    """Exact rational t >= 0 with g(t) < 0, by Sturm-guided bisection.

    Builds the Sturm chain of the squarefree part once, brackets all real
    roots with a doubling bound, and bisects only subintervals that still
    contain roots; every evaluated midpoint is sign-checked exactly, so the
    first midpoint inside the (open) negative region is returned.

    Each queued bracket carries the chain's sign variations at both its
    ends, so a midpoint costs one chain evaluation; a squarefree g heads
    its own chain, and its sign there is the chain's first value, read
    before the rest of the chain is evaluated.  A midpoint is charged
    ``len(chain) + 1`` budget units either way.  The count at 0 is taken
    once, and the one at the final doubling bound is reused.
    """
    if g.is_zero or g.degree < 1:
        return None
    if sgn(g.eval(Fraction(0))) < 0:
        return Fraction(0)
    chain, vars_minus_inf, vars_plus_inf = squarefree_sturm(g)
    total_roots = vars_minus_inf - vars_plus_inf

    top = Fraction(2)
    v_top = chain_variations(chain, top)
    while chain_variations(chain, -top) - v_top < total_roots:
        top *= 2
        if not budget.spend(len(chain)):
            return None
        v_top = chain_variations(chain, top)
    if sgn(g.eval(top)) < 0:
        return top

    queue: deque[tuple[Fraction, Fraction, int, int]] = deque()
    v_zero = chain_variations(chain, Fraction(0))
    if v_zero > v_top:
        queue.append((Fraction(0), top, v_zero, v_top))
    tail = chain[1:] if chain[0] is g else None
    while queue:
        lo, hi, v_lo, v_hi = queue.popleft()
        mid = (lo + hi) / 2
        if not budget.spend(len(chain) + 1):
            return None
        g_sign = sgn(g.eval(mid))
        if g_sign < 0:
            return mid
        if tail is None:
            v_mid = chain_variations(chain, mid)
        else:
            v_mid = count_sign_changes([g_sign] + [sgn(q.eval(mid)) for q in tail])
        if v_lo > v_mid:
            queue.append((lo, mid, v_lo, v_mid))
        if v_mid > v_hi:
            queue.append((mid, hi, v_mid, v_hi))
    return None


def _cubic_roots(
    tstar: Fraction, rstar: Fraction, width: Fraction, budget: _Budget
) -> Optional[list[Fraction]]:
    """One rational within ``width / 2`` of each root of
    P(X) = X**3 - X**2 + q*X - rstar, q = (1-tstar**2)/3, ascending, by sign
    bisection; None when the budget runs out.  Needs tstar >= 0 and rstar
    in [r1, r2] = r_range(tstar).

    P' vanishes at (1 -+ tstar)/3, and P is r1 - rstar, r2 - rstar,
    r1 - rstar, r2 - rstar at (1-2*tstar)/3, (1-tstar)/3, (1+tstar)/3,
    (1+2*tstar)/3, so the three roots, counted with multiplicity, lie one
    in each of the three intervals between them, where P is monotone with
    known end signs.  Each
    evaluation of P costs 4 units, in line with the ``len(chain)`` units of
    a Sturm-chain evaluation in ``_find_negative_t``.
    """
    q = (1 - tstar * tstar) / 3
    ends = [(1 + j * tstar) / 3 for j in (-2, -1, 1, 2)]
    roots = []
    # (an end where P <= 0, an end where P >= 0): P rises, falls, rises
    for neg, pos in ((ends[0], ends[1]), (ends[2], ends[1]), (ends[2], ends[3])):
        while abs(pos - neg) > width:
            if not budget.spend(4):
                return None
            mid = (neg + pos) / 2
            if ((mid - 1) * mid + q) * mid < rstar:
                neg = mid
            else:
                pos = mid
        roots.append((neg + pos) / 2)
    return roots


def _locus_roots(c: CyclicParams, tstar: Fraction, budget: _Budget):
    """Rational root sets near the equality locus at tstar, exact points first.

    On x+y+z = 1 the locus is xy+yz+zx = q* = (1-tstar**2)/3 and xyz = r*
    with H(r*) = 0.  First the two sets with two equal variables, exact
    points of the locus that minimize F when m = n.  Then, at 8, 16, 24,
    ... bits, r* with f2/sqrt(R) rounded by ``math.isqrt`` and clamped to
    r_range(tstar), and the three roots of X**3 - X**2 + q*X - r* to that
    width (``_cubic_roots``).  Ends when the budget runs out.
    """
    yield [(1 + tstar) / 3, (1 + tstar) / 3, (1 - 2 * tstar) / 3]
    yield [(1 - tstar) / 3, (1 - tstar) / 3, (1 + 2 * tstar) / 3]
    r1, r2 = r_range(tstar)
    rad = radicand(c)
    f2 = 4 * c.k + c.m + c.n - 8 - 2 * c.l
    cos2 = f2 * f2 / rad if rad else Fraction(0)  # (f2 / sqrt(R))**2, in [0, 1]
    for bits in itertools.count(8, 8):
        scale = 1 << bits
        cos = Fraction(math.isqrt(cos2.numerator * scale * scale // cos2.denominator), scale)
        rstar = (1 - 3 * tstar**2 + 2 * (cos if f2 > 0 else -cos) * tstar**3) / 27
        rstar = min(max(rstar, r1), r2)
        xs = _cubic_roots(tstar, rstar, Fraction(1, scale), budget)
        if xs is None:
            return
        yield xs


def _seeded_search(c: CyclicParams, budget: _Budget):
    """A point with F < 0 near the equality locus at an exact tstar >= 0
    with g(tstar) < 0, or None when the budget runs out.

    tstar comes from the Sturm bisection of ``_find_negative_t``; each root
    set of ``_locus_roots`` is then tried in both orders.
    """
    g = reduce_to_g(c).to_unipoly()
    tstar = _find_negative_t(g, budget)
    if tstar is None:
        return None
    for xs in _locus_roots(c, tstar, budget):
        for triple in ((xs[0], xs[1], xs[2]), (xs[0], xs[2], xs[1])):
            if not budget.spend():
                return None
            if eval_form(c, *triple) < 0:
                return triple
    return None


def find_witness(
    c: CyclicParams, budget: int = DEFAULT_WITNESS_BUDGET
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Exact rational (x, y, z) with F(x, y, z) < 0, or None.

    Deterministic, in three stages: fixed probe points, integer face grids
    of denominators 1 to 4, then a seeded search driven by an exact
    negative value of the reduced quartic (``_seeded_search``).  Every
    stage is rational arithmetic only, and every returned point is checked
    exactly with ``eval_form``.
    """
    tracker = _Budget(budget)
    for point in _PROBE_POINTS:
        if not tracker.spend():
            return None
        if eval_form(c, *point) < 0:
            return tuple(Fraction(v) for v in point)

    point, used = kernels.find_negative_on_faces(c, (1, 2, 3, 4), tracker.left)
    tracker.spend(used)
    if point is not None:
        return point
    if tracker.left <= 0 or decide_structural(c).is_psd:
        return None
    return _seeded_search(c, tracker)


def attach_witness(c: CyclicParams, verdict: Verdict, budget: int = DEFAULT_WITNESS_BUDGET) -> Verdict:
    """Return the verdict with a witness attached when one can be found."""
    if verdict.is_psd:
        return verdict
    witness = find_witness(c, budget)
    if witness is None:
        return verdict
    return Verdict(
        is_psd=False,
        method=verdict.method,
        fired_clause=verdict.fired_clause,
        witness=witness,
        witness_value=eval_form(c, *witness),
    )
