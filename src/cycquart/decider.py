"""Three decision procedures for the cyclic ternary quartic.

* ``decide_closed_form`` evaluates a quantifier-free formula in the signs
  of the clause polynomials of (k, l, m, n).  All eleven are read off the
  integers the form keeps, as integer numerators over positive
  denominators (``clause_pairs``): f1, f2 and f3 off g, f5, f6 and f7 off
  the cofactors of its discriminants, f4 and g1..g4 off d*(k, l, m, n).
  So this path shares g's reduction and discriminant formulas with
  ``decide_structural``; the published polynomials are the references of
  the tests, and ``eval_polys`` gives the values as fractions.  Three
  textual variants are shipped because the source formula is
  self-contradictory on boundary strata: the ``theorem`` variant uses the
  strict comparisons ``f6 < 0 or f7 < 0``, the ``proof`` variant the
  non-strict ones, and the ``corrected`` variant adds the missing guard
  ``k + m - 1 >= 0`` to the degenerate-radicand clause (see
  ``decide_closed_form``).

* ``decide_structural`` reduces to the univariate quartic g(t) and decides
  it case by case: biquadratic rules when the radicand R vanishes, a
  quadratic-factor rule when the constant term vanishes, and the special
  quartic discriminant rule otherwise.  It reads only the four numbers
  (a0, a1**2 = R, a2, a4) of g, in integer arithmetic, from
  ``form.reduced_coefficients``, where g is computed once per form.

* ``decide_oracle`` runs the everywhere-nonnegativity oracle (squarefree
  decomposition plus Sturm counting) on d*g (``quartic_rules.g_polynomial``):
  in Z[t] when sqrt(R) is rational, else with -d*sqrt(R) its one coefficient
  in Q(sqrt(R)) -- no discriminant sequences, no clause polynomials, hence
  an independent implementation path.

Each returns a ``Verdict``: PSD or not, the method and the fired clause,
one shared immutable instance per clause.  A counterexample is not part of
a verdict; it comes only from ``find_witness``.

``find_witness`` produces exact rational points with F < 0 for forms that
are not positive semidefinite: probe points, then integer face grids, then
a seeded search on the equality locus of the reduction.  No float is used
anywhere: the seeded stage finds an exact t* with g(t*) < 0 by Sturm
bisection, then the point of the locus over t* by sign bisection of a cubic
between its rational critical points, run on integer numerators over the
common denominator 3*b*2**s of its ends, t* = a/b.  The Sturm chain is
p(u)'s over Q, read at u = sqrt(R)*t (at t when R = 0), from
``SpecialQuartic.sturm_in_t``; this module names no element of Q(sqrt(R)),
where only u and the chain's values at u lie.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Optional

from . import kernels
from .form import (
    CyclicParams,
    form_numerator,
    r_range,
    reduce_to_g,
    reduced_coefficients,
    scaled_coefficients,
)
from .quartic_rules import SpecialQuartic, discriminant_cofactors, discriminant_rule, g_polynomial
from .roots import is_nonneg_everywhere
from .scalars import sgn
from .unipoly import chain_variations, count_sign_changes

__all__ = [
    "ClausePolynomials",
    "CLAUSE_POLYNOMIAL_NAMES",
    "Verdict",
    "CLOSED_FORM_VARIANTS",
    "clause_quotients",
    "clause_pairs",
    "eval_polys",
    "decide_closed_form",
    "closed_form_verdict",
    "decide_structural",
    "decide_oracle",
    "decide",
    "find_witness",
    "DEFAULT_WITNESS_BUDGET",
]

CLOSED_FORM_VARIANTS = ("theorem", "proof", "corrected")

DEFAULT_WITNESS_BUDGET = 40000


@dataclass(frozen=True, slots=True)
class ClausePolynomials:
    """The eleven coefficient polynomials of the closed-form criterion, by
    name: their values (``eval_polys``), or their integer numerators and
    positive denominators (``clause_pairs``).

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
    """Decision outcome: PSD or not, the deciding method and the clause that
    fired.  Every decider returns the one shared instance of its clause
    (``_verdict``); a counterexample is not part of it, and comes from
    ``find_witness``."""

    is_psd: bool
    method: str
    fired_clause: str


@cache
def _verdict(ok: bool, method: str, clause: str) -> Verdict:
    """The verdict of a fired clause; a Verdict is immutable, so each is built
    once and shared, and a caller that keeps many verdicts keeps no copy of
    them."""
    return Verdict(ok, method, clause)


def clause_quotients(scaled, reduced) -> tuple[tuple, tuple]:
    """The eleven clause values as ``(numerators, denominators)``, in the
    order of ``ClausePolynomials``, from ``(d, K, L, M, N) =
    scaled_coefficients(c)`` and ``(d, A0, S, A2, A4, F2) =
    reduced_coefficients(c)``, the integers of d*(1, k, l, m, n) and d*g.

    f1 = A0/(3*d), f2 = F2/d and f3 = A4/d are g's coefficients.  The
    cofactors (E2, E3, E4) of ``discriminant_cofactors`` at d*g are d**2,
    d**4 and d**5 times g's own, so D2 = 108*f1**2*f6, D3 = 324*f1**2*f7
    and D4 = 104976*f1**2*f3*f5 give f6 = E2/(12*d**2), f7 = E3/(36*d**4)
    and f5 = E4/(11664*d**5).  f4 and g1..g4 are the published polynomials
    times d**2 or d.  Every denominator is positive.  Nothing is divided,
    so it runs in any ring; the sympy proofs run it on symbols.
    """
    d, K, _, M, N = scaled
    _, a0, s, a2, a4, f2 = reduced
    e2, e3, e4 = discriminant_cofactors(a0, s, a2, a4)
    dd = d * d
    numerators = (
        a0, f2, a4, 3 * d * (d + K) - M * M - N * N - M * N, e4, e2, e3,
        K - 2 * M + 2 * d, 4 * d * K - M * M - 8 * dd, 8 * d + M - 2 * K, M - N,
    )
    denominators = (3 * d, d, d, dd, 11664 * dd * dd * d, 12 * dd, 36 * dd * dd, d, dd, d, d)
    return numerators, denominators


def clause_pairs(c: CyclicParams) -> tuple[ClausePolynomials, ClausePolynomials]:
    """``(numerators, denominators)``: ``clause_quotients`` on the integers
    kept on ``c``, by name.  Each numerator has the sign of its clause value
    and each denominator is positive; neither is reduced."""
    numerators, denominators = clause_quotients(scaled_coefficients(c), reduced_coefficients(c))
    return ClausePolynomials(*numerators), ClausePolynomials(*denominators)


def eval_polys(c: CyclicParams) -> ClausePolynomials:
    """Exact values of f1..f7 and g1..g4 at ``c``: ``clause_quotients`` on
    the integers kept on ``c``, and one exact division per value."""
    numerators, denominators = clause_quotients(scaled_coefficients(c), reduced_coefficients(c))
    return ClausePolynomials(*map(Fraction, numerators, denominators))


def decide_closed_form(c: CyclicParams, variant: str = "theorem") -> Verdict:
    """Evaluate the quantifier-free formula at ``c`` on the clause numerators
    of ``clause_pairs``; see ``closed_form_verdict``."""
    return closed_form_verdict(c, clause_pairs(c)[0], variant)


def closed_form_verdict(c: CyclicParams, P: ClausePolynomials, variant: str) -> Verdict:
    """The quantifier-free formula read off the signs of the clause
    polynomials ``P`` of ``c``, so ``P`` may hold their values or their
    numerators over positive denominators; three disjuncts.

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
    # m and k + m - 1 are compared on the integers d*(1, k, m), d > 0
    d, K, _, M, _ = scaled_coefficients(c)

    if P.g4 == 0 and P.f2 == 0:
        if P.g1 == 0 and d <= M <= 4 * d:
            return _verdict(True, method, "case1/g1=0/1<=m<=4")
        if P.g1 > 0 and P.g2 >= 0:
            return _verdict(True, method, "case1/g1>0/g2>=0")
        if P.g1 > 0 and P.g3 >= 0:
            if variant != "corrected":
                return _verdict(True, method, "case1/g1>0/g3>=0")
            if K + M - d >= 0:
                return _verdict(True, method, "case1/g1>0/g3>=0/k+m-1>=0")
    else:
        if P.f1 > 0 and P.f3 == 0 and P.f4 >= 0:
            return _verdict(True, method, "case2/f1>0/f3=0/f4>=0")
        if P.f1 > 0 and P.f3 > 0:
            if variant == "proof":
                if P.f5 > 0 and (P.f6 <= 0 or P.f7 <= 0):
                    return _verdict(True, method, "case3/f5>0/f6<=0|f7<=0")
            else:
                if P.f5 > 0 and (P.f6 < 0 or P.f7 < 0):
                    return _verdict(True, method, "case3/f5>0/f6<0|f7<0")
            if P.f5 == 0 and P.f7 < 0:
                return _verdict(True, method, "case3/f5=0/f7<0")
    return _verdict(False, method, "none")


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
    a1_squared = R.  Only the integers of d*g are read,
    ``(a0, s, a2, a4) = (3*d*f1, d**2*R, 3*d*(4+m+n-l), d*f3)``
    (``reduced_coefficients``); each rule reads only signs of expressions
    homogeneous in them, so every branch is taken exactly as over Q.
    """
    _, a0, s, a2, a4, _ = reduced_coefficients(c)

    if s == 0:
        # here (a0, a2, a4) = 3*d*(g1, g3, k+m-1)
        ok, tag = _biquadratic_nonneg(a0, a2, a4)
        return _verdict(ok, "structural", f"R=0/biquadratic/{tag}")
    if a4 < 0:
        return _verdict(False, "structural", "f3<0/g(0)<0")
    if a4 == 0:
        # g = t**2 * (a0*t**2 - sqrt(R)*t + a2)
        if a0 <= 0:
            return _verdict(False, "structural", "f3=0/quadratic/f1<=0")
        ok = s <= 4 * a0 * a2
        tag = "f3=0/quadratic/disc<=0" if ok else "f3=0/quadratic/disc>0"
        return _verdict(ok, "structural", tag)
    if a0 <= 0:
        return _verdict(False, "structural", "f3>0/f1<=0")
    # a0 > 0 and a4 > 0: D2, D3 and D4 have the signs of their cofactors
    ok, rule = discriminant_rule(*discriminant_cofactors(a0, s, a2, a4))
    return _verdict(ok, "structural", f"f3>0/quartic-rule/{rule}")


def decide_oracle(c: CyclicParams) -> Verdict:
    """Sturm-based oracle: everywhere-nonnegativity of g, read on d*g, the
    ``g_polynomial`` of the integers (A0, S, A2, A4) of ``reduced_coefficients``,
    in Z[t] or over Q(sqrt(S)) = Q(sqrt(R)); d > 0 keeps every Sturm count."""
    _, a0, s, a2, a4, _ = reduced_coefficients(c)
    ok = is_nonneg_everywhere(g_polynomial(a0, s, -1, a2, a4))
    return _verdict(ok, "sturm_oracle", "g-nonneg" if ok else "g-negative")


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

# cheap necessary-condition probes: (1,1,1) has F = 3*f3, (1,-1,0) has F = f1;
# the rows of ``kernels.first_negative``, each labelled with the witness it
# returns, built once
_PROBES = kernels.tabulate(
    (tuple(Fraction(v) for v in point), point)
    for point in (
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
)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount

    def spend(self, amount: int = 1) -> bool:
        self.left -= amount
        return self.left >= 0


def _find_negative_t(q: SpecialQuartic, budget: _Budget) -> Optional[Fraction]:
    """Exact rational t >= 0 with g(t) < 0, g = ``q.to_unipoly()``, by
    Sturm-guided bisection.

    Builds one Sturm chain over Q, of the squarefree part of
    p(u) = s**2*g(u/sqrt(s)), and reads it at u = sqrt(s)*t
    (``SpecialQuartic.sturm_in_t``); brackets all real roots with a
    doubling bound, and bisects only subintervals that still contain roots;
    g is signed exactly at every midpoint, so the first midpoint inside the
    (open) negative region is returned.

    Each queued bracket carries the chain's sign variations at both its
    ends, so a midpoint costs one chain evaluation, at one u; a squarefree
    p heads its chain with g's sign, read first.  A midpoint is charged
    ``len(chain) + 1`` budget units either way.  The count at 0 is taken
    once, and the one at the final doubling bound is reused.
    """
    g = q.to_unipoly()
    if g.is_zero or g.degree < 1:
        return None
    if sgn(g.eval(Fraction(0))) < 0:
        return Fraction(0)
    chain, vars_minus_inf, vars_plus_inf, at = q.sturm_in_t()
    total_roots = vars_minus_inf - vars_plus_inf

    top = Fraction(2)
    v_top = chain_variations(chain, at(top))
    while chain_variations(chain, at(-top)) - v_top < total_roots:
        top *= 2
        if not budget.spend(len(chain)):
            return None
        v_top = chain_variations(chain, at(top))
    if sgn(g.eval(top)) < 0:
        return top

    queue: deque[tuple[Fraction, Fraction, int, int]] = deque()
    v_zero = chain_variations(chain, Fraction(0))
    if v_zero > v_top:
        queue.append((Fraction(0), top, v_zero, v_top))
    # p heads its chain exactly when it is squarefree, of g's degree
    skip = int(chain[0].degree == g.degree)
    rest = chain[skip:]
    while queue:
        lo, hi, v_lo, v_hi = queue.popleft()
        mid = (lo + hi) / 2
        if not budget.spend(len(chain) + 1):
            return None
        g_sign = sgn(g.eval(mid))
        if g_sign < 0:
            return mid
        u = at(mid)
        v_mid = count_sign_changes([g_sign] * skip + [sgn(r.eval(u)) for r in rest])
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

    The bisection runs on integer numerators over the common denominator
    D = 3*b*2**s, with tstar = a/b and rstar = rn/rd: the ends start at
    b + j*a over 3*b, and each step doubles D and both ends and takes their
    sum as the midpoint.  P(x/D) < 0 reads
    (3*b**2*x**3 - 3*b**2*x**2*D + (b**2 - a**2)*x*D**2) * rd < 3*b**2*D**3 * rn,
    so every midpoint, sign and budget charge is that of the same bisection
    over Q, and only the returned roots are built as fractions.
    """
    a, b = tstar.numerator, tstar.denominator
    rn, rd = rstar.numerator, rstar.denominator
    wn, wd = width.numerator, width.denominator
    # 3*b**2*rd * (P(X) + rstar) = cubic*(X**3 - X**2) + linear*X
    cubic = 3 * b * b * rd
    linear = (b * b - a * a) * rd
    rhs = 3 * b * b * rn
    ends = [b + j * a for j in (-2, -1, 1, 2)]
    roots = []
    # (an end where P <= 0, an end where P >= 0): P rises, falls, rises
    for neg, pos in ((ends[0], ends[1]), (ends[2], ends[1]), (ends[2], ends[3])):
        d = 3 * b
        while abs(pos - neg) * wd > d * wn:
            if not budget.spend(4):
                return None
            mid = neg + pos
            neg, pos, d = 2 * neg, 2 * pos, 2 * d
            dd = d * d
            if (cubic * (mid - d) * mid + linear * dd) * mid < rhs * dd * d:
                neg = mid
            else:
                pos = mid
        roots.append(Fraction(neg + pos, 2 * d))
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
    _, _, s, _, _, f2 = reduced_coefficients(c)  # d**2*R and d*f2
    cos2 = Fraction(f2 * f2, s) if s else Fraction(0)  # (f2 / sqrt(R))**2, in [0, 1]
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
    tstar = _find_negative_t(reduce_to_g(c), budget)
    if tstar is None:
        return None
    for xs in _locus_roots(c, tstar, budget):
        for triple in ((xs[0], xs[1], xs[2]), (xs[0], xs[2], xs[1])):
            if not budget.spend():
                return None
            if form_numerator(c, *triple) < 0:
                return triple
    return None


def find_witness(
    c: CyclicParams, budget: int = DEFAULT_WITNESS_BUDGET
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Exact rational (x, y, z) with F(x, y, z) < 0, or None.

    Deterministic, in three stages: fixed probe points, integer face grids
    of denominators 1 to 4, then a seeded search driven by an exact
    negative value of the reduced quartic (``_seeded_search``).  Every
    sign of F it reads is that of the integer numerator
    d*S4 + K*S22 + L*S211 + M*S31 + N*S13 of F, read off tables of cyclic
    sums by ``kernels.first_negative`` at the probes and on the faces, and
    by ``form_numerator`` elsewhere; no Fraction value of F is built.
    This is the only source of a witness; ``eval_form`` gives F there.
    """
    # as many probes as the budget allows, one unit each; a budget that
    # cannot pay for all ten ends the search here
    witness, _ = kernels.first_negative(scaled_coefficients(c), _PROBES[: max(budget, 0)])
    if witness is not None:
        return witness
    tracker = _Budget(budget)
    if not tracker.spend(len(_PROBES)):
        return None

    point, used = kernels.find_negative_on_faces(c, (1, 2, 3, 4), tracker.left)
    tracker.spend(used)
    if point is not None:
        return point
    if tracker.left <= 0 or decide_structural(c).is_psd:
        return None
    return _seeded_search(c, tracker)
