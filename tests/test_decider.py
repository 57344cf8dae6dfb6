import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from cycquart.decider import (
    CLOSED_FORM_VARIANTS,
    Verdict,
    _biquadratic_nonneg,
    _Budget,
    _cubic_roots,
    _find_negative_t,
    _seeded_search,
    attach_witness,
    decide,
    decide_closed_form,
    decide_oracle,
    decide_structural,
    eval_polys,
    find_witness,
)
from cycquart.form import CyclicParams, eval_form, r_range, radicand, reduce_to_g
from cycquart.harness import STRATA, stratum_sampler
from cycquart.quartic_rules import SpecialQuartic, discriminant_rule, discriminants
from cycquart.roots import is_nonneg_everywhere
from cycquart.scalars import QuadExt, is_perfect_square, sgn
from cycquart.unipoly import (
    UniPoly,
    chain_variations,
    squarefree_decompose,
    squarefree_sturm,
    sturm_chain,
)


def rand_params(rng, span=12, den=6):
    return CyclicParams(*(F(rng.randint(-span, span), rng.randint(1, den))
                          for _ in range(4)))


def test_eval_polys_at_origin():
    P = eval_polys(CyclicParams(0, 0, 0, 0))
    assert (P.f1, P.f2, P.f3, P.f4) == (2, -8, 1, 3)
    assert (P.f5, P.f6, P.f7) == (128, -32, -768)
    assert (P.g1, P.g2, P.g3, P.g4) == (2, -8, 8, 0)


def test_eval_polys_examples():
    P = eval_polys(CyclicParams(0, 0, -1, 0))
    assert (P.f1, P.f2, P.f3, P.f4, P.g4) == (3, -9, 0, 2, -1)
    P = eval_polys(CyclicParams(2, 0, 0, 0))
    assert (P.f1, P.f2, P.f3) == (4, 0, 3)
    assert (P.g1, P.g2, P.g4) == (4, 0, 0)


def test_clause_polynomials_mn_symmetry():
    rng = random.Random(53)
    for _ in range(60):
        c = rand_params(rng)
        swapped = CyclicParams(c.k, c.l, c.n, c.m)
        P, Q = eval_polys(c), eval_polys(swapped)
        assert (P.f1, P.f2, P.f3, P.f4, P.f5, P.f6, P.f7) == (
            Q.f1, Q.f2, Q.f3, Q.f4, Q.f5, Q.f6, Q.f7)
        assert P.g4 == -Q.g4


def test_discriminant_proportionality_identities():
    # D2(g) = 108*f1^2*f6, D3(g) = 324*f1^2*f7, D4(g) = 104976*f1^2*f3*f5
    rng = random.Random(59)
    checked = 0
    for _ in range(150):
        c = rand_params(rng)
        P = eval_polys(c)
        if P.f1 == 0:
            continue
        rad = radicand(c)
        quartic = SpecialQuartic(
            a0=3 * P.f1, a1_squared=rad, a1_sign=-1 if rad > 0 else 0,
            a2=3 * (4 + c.m + c.n - c.l), a4=P.f3)
        _, d2, d3, d4 = discriminants(quartic)
        assert d2 == 108 * P.f1 ** 2 * P.f6
        assert d3 == 324 * P.f1 ** 2 * P.f7
        assert d4 == 104976 * P.f1 ** 2 * P.f3 * P.f5
        checked += 1
    assert checked > 100


def test_discriminant_identities_hold_symbolically():
    # the same identities as polynomial identities in Q[k, l, m, n], with
    # the published expressions of eval_polys evaluated on symbols
    sympy = pytest.importorskip("sympy")
    k, l, m, n = sympy.symbols("k l m n")
    c = SimpleNamespace(k=k, l=l, m=m, n=n)
    P = eval_polys(c)
    quartic = SimpleNamespace(
        a0=3 * P.f1, a1_squared=radicand(c), a2=3 * (4 + m + n - l), a4=P.f3)
    _, d2, d3, d4 = discriminants(quartic)
    assert sympy.expand(d2 - 108 * P.f1 ** 2 * P.f6) == 0
    assert sympy.expand(d3 - 324 * P.f1 ** 2 * P.f7) == 0
    assert sympy.expand(d4 - 104976 * P.f1 ** 2 * P.f3 * P.f5) == 0


def test_closed_form_examples():
    v = decide_closed_form(CyclicParams(0, 0, 0, 0), "theorem")
    assert v.is_psd and v.fired_clause == "case3/f5>0/f6<0|f7<0"

    # documented erratum: the theorem variant accepts a non-PSD form
    erratum = CyclicParams(F(1, 2), -3, 0, 0)
    v = decide_closed_form(erratum, "theorem")
    assert v.is_psd and v.fired_clause == "case1/g1>0/g3>=0"
    assert eval_form(erratum, 1, 1, 1) == F(-9, 2)
    assert not decide_closed_form(erratum, "corrected").is_psd

    v = decide_closed_form(CyclicParams(0, 0, -3, 0), "theorem")
    assert not v.is_psd and v.fired_clause == "none"

    with pytest.raises(ValueError):
        decide_closed_form(CyclicParams(0, 0, 0, 0), "bogus")


def test_structural_examples():
    v = decide_structural(CyclicParams(0, 0, 0, 0))
    assert v.is_psd and v.fired_clause.startswith("f3>0/quartic-rule/D4>0")

    v = decide_structural(CyclicParams(0, 0, -1, 0))
    assert v.is_psd and v.fired_clause == "f3=0/quadratic/disc<=0"

    v = decide_structural(CyclicParams(F(1, 2), -3, 0, 0))
    assert not v.is_psd and v.fired_clause == "R=0/biquadratic/c<0"

    v = decide_structural(CyclicParams(2, 0, 0, 0))
    assert v.is_psd and v.fired_clause.startswith("R=0/biquadratic")


def test_oracle_examples():
    assert decide_oracle(CyclicParams(2, 0, 0, 0)).is_psd
    assert not decide_oracle(CyclicParams(0, 0, 2, 2)).is_psd
    assert not decide_oracle(CyclicParams(0, 0, -3, 0)).is_psd


def test_structural_equals_oracle_on_random_samples():
    rng = random.Random(61)
    for _ in range(200):
        c = rand_params(rng)
        assert decide_structural(c).is_psd == decide_oracle(c).is_psd


def structural_over_q(c):
    """(is_psd, fired_clause) of decide_structural's case analysis, with
    Fraction arithmetic throughout."""
    k, l, m, n = c.k, c.l, c.m, c.n
    rad = radicand(c)
    if rad == 0:
        ok, tag = _biquadratic_nonneg(k - 2 * m + 2, 8 + m - 2 * k, k + m - 1)
        return ok, f"R=0/biquadratic/{tag}"
    f1, f3 = 2 + k - m - n, 1 + k + m + n + l
    if f3 < 0:
        return False, "f3<0/g(0)<0"
    if f3 == 0:
        if f1 <= 0:
            return False, "f3=0/quadratic/f1<=0"
        ok = rad <= 36 * f1 * (4 + m + n - l)
        return ok, "f3=0/quadratic/disc<=0" if ok else "f3=0/quadratic/disc>0"
    if f1 <= 0:
        return False, "f3>0/f1<=0"
    _, d2, d3, d4 = discriminants(reduce_to_g(c))
    ok, rule = discriminant_rule(d2, d3, d4)
    return ok, f"f3>0/quartic-rule/{rule}"


def test_structural_integers_match_a_fraction_reference():
    # stratum draws; every fifth one also scaled by 10**200 and 10**-200 and
    # redrawn with denominators up to 10**12.  An f5_zero_near draw costs 32
    # eval_f5 calls, so that stratum gets fewer seeds.
    inputs = []
    for stratum in STRATA:
        for seed in range(20 if stratum == "f5_zero_near" else 300):
            c = stratum_sampler(stratum, random.Random(seed))
            inputs.append(c)
            if seed % 5 == 0:
                inputs += [
                    CyclicParams(*(v * scale for v in (c.k, c.l, c.m, c.n)))
                    for scale in (F(10) ** 200, F(1, 10**200))
                ]
                inputs.append(
                    stratum_sampler(stratum, random.Random(seed), denominator_bound=10**12)
                )
    # the degenerate branches: a grid of halves, and integer points for the
    # branches it misses
    halves = [F(i, 2) for i in range(-2, 5)]
    inputs += [CyclicParams(*p) for p in itertools.product(halves, repeat=4)]
    inputs += [
        CyclicParams(*p)
        for p in (
            (-1, -6, 0, 0), (8, 17, 5, 5), (4, 2, -2, -2), (4, 1, -3, -3), (5, 2, -4, -3)
        )
    ]
    clauses = set()
    for c in inputs:
        verdict = decide_structural(c)
        assert (verdict.is_psd, verdict.fired_clause) == structural_over_q(c), c
        clauses.add(verdict.fired_clause)
    assert len(clauses) == 18  # every branch


def test_psd_implies_necessary_conditions():
    rng = random.Random(67)
    for _ in range(200):
        c = rand_params(rng)
        if decide_structural(c).is_psd:
            P = eval_polys(c)
            assert P.f1 >= 0 and P.f3 >= 0


def test_find_witness_examples():
    assert find_witness(CyclicParams(0, 0, -3, 0)) == (1, 1, 1)
    assert find_witness(CyclicParams(0, 0, 2, 2)) == (1, -1, 0)
    assert find_witness(CyclicParams(F(1, 2), -3, 0, 0)) == (1, 1, 1)


def test_find_witness_soundness():
    rng = random.Random(71)
    found = 0
    for _ in range(60):
        c = rand_params(rng)
        verdict = decide_structural(c)
        witness = find_witness(c, budget=20000)
        if verdict.is_psd:
            assert witness is None
        else:
            assert witness is not None
            assert eval_form(c, *witness) < 0
            found += 1
    assert found > 10


def test_witnesses_near_the_psd_boundary():
    # bisect random segments crossing the PSD boundary; the NotPSD endpoint
    # ends up within 2^-28 of the boundary, so the negative region is
    # razor-thin and far from any probe point or coarse grid
    rng = random.Random(97)

    def lerp(a, b, lam):
        return CyclicParams(*(getattr(a, n) + lam * (getattr(b, n) - getattr(a, n))
                              for n in "klmn"))

    tested = 0
    while tested < 8:
        a = rand_params(rng, span=30, den=8)
        b = rand_params(rng, span=30, den=8)
        pa, pb = decide_structural(a).is_psd, decide_structural(b).is_psd
        if pa == pb:
            continue
        if not pa:
            a, b = b, a
        lo, hi = F(0), F(1)
        for _ in range(28):
            mid = (lo + hi) / 2
            if decide_structural(lerp(a, b, mid)).is_psd:
                lo = mid
            else:
                hi = mid
        c = lerp(a, b, hi)
        assert not decide_structural(c).is_psd
        assert not decide_oracle(c).is_psd
        witness = find_witness(c)
        assert witness is not None
        assert eval_form(c, *witness) < 0
        tested += 1


def test_seeded_search_handles_grid_resistant_case():
    # negative region far from the probe points and the coarse face grids
    c = CyclicParams(F(29, 8), -1, -2, 4)
    assert not decide_structural(c).is_psd
    witness = find_witness(c)
    assert witness is not None
    assert eval_form(c, *witness) < 0


@pytest.mark.parametrize("c", [
    CyclicParams(10 ** 200, 10 ** 200, 10 ** 200, 0),
    CyclicParams(1, 1, 10 ** 200, 0),
    CyclicParams(0, 0, -10 ** 300, 0),
])
def test_seeded_search_survives_coefficients_beyond_float_range(c):
    found = _seeded_search(c, _Budget(40000))
    assert found is None or eval_form(c, *found) < 0


MICRO = F(1, 10 ** 6)


@pytest.mark.parametrize("params", [
    (F(1999999, 10 ** 6), 0, -3, MICRO),
    (F(1999999, 10 ** 6), MICRO, -MICRO, F(-2999999, 10 ** 6)),
    (F(999999, 500000), MICRO, 0, F(-2999999, 10 ** 6)),
    (F(1999999, 10 ** 6), MICRO, F(-2999999, 10 ** 6), -MICRO),
    (F(3999997, 2000000), F(1000000000001, 10 ** 18), F(-1, 2000000), F(-2999999, 10 ** 6)),
])
def test_witness_found_within_a_millionth_of_vascs_boundary(params):
    # the negative region is thin here: the witness comes from the seeded
    # stage's exact bisection
    c = CyclicParams(*params)
    assert not decide_structural(c).is_psd
    witness = find_witness(c)
    assert witness is not None
    assert eval_form(c, *witness) < 0


@pytest.mark.parametrize("params", [
    (6, -5, 1, 1),  # m = n: two equal variables
    (11, F(11, 2), F(-2, 3), F(-5, 2)),  # isolated cubic roots
])
def test_seeded_search_is_exact_beyond_float_range(params):
    c = CyclicParams(*(10 ** 200 * F(v) for v in params))
    assert not decide_structural(c).is_psd
    found = _seeded_search(c, _Budget(40000))
    assert found is not None
    assert eval_form(c, *found) < 0


def cubic_draws(rng):
    """(t*, r*) with t* >= 0 and r* in r_range(t*): both ends, t* = 0, and
    random rationals."""
    draws = [(F(0), F(1, 27))]
    for _ in range(60):
        t = F(rng.randint(0, 40), rng.randint(1, 12))
        r1, r2 = r_range(t)
        draws += [(t, r1), (t, r2), (t, r1 + (r2 - r1) * F(rng.randint(0, 97), 97))]
    return draws


def test_cubic_roots_are_ascending_in_their_brackets_and_within_half_the_width():
    rng = random.Random(17)
    for t, r in cubic_draws(rng):
        width = F(1, 2 ** rng.randint(1, 40))
        roots = _cubic_roots(t, r, width, _Budget(10 ** 6))
        assert roots == sorted(roots)
        ends = [(1 + j * t) / 3 for j in (-2, -1, 1, 2)]
        p = UniPoly([1, -1, (1 - t * t) / 3, -r])
        for x, lo, hi in zip(roots, ends, ends[1:]):
            assert lo <= x <= hi
            # p is monotone on [lo, hi]: a root lies within width/2 of x
            # exactly when p changes sign or vanishes across that window
            a, b = max(lo, x - width / 2), min(hi, x + width / 2)
            assert p.eval(a) * p.eval(b) <= 0
    assert _cubic_roots(F(1, 2), F(1, 54), F(1, 2 ** 20), _Budget(10)) is None


def vasc_perturbations(direction=(F(1, 2), 0, F(1, 3), F(-1, 4))):
    """24 inputs near Vasc's boundary forms (2,0,-3,0) and (2,0,0,-3).

    Each base is moved by +-eps along ``direction``, eps = 10**-1..10**-6,
    and l is then set so that f3 is eps**2 (odd exponents) or 0 (even
    ones).  One sign of each pair is NotPSD, and every NotPSD input gets
    past the probe points and the coarse face grids to the seeded stage,
    whose Sturm bisection meets both squarefree and non-squarefree g.
    """
    inputs = []
    for base in ((2, 0, -3, 0), (2, 0, 0, -3)):
        for exponent in range(1, 7):
            eps = F(1, 10 ** exponent)
            f3 = eps ** 2 if exponent % 2 else F(0)
            for sign in (1, -1):
                k, _, m, n = (b + sign * eps * d for b, d in zip(base, direction))
                inputs.append(CyclicParams(k, f3 - (1 + k + m + n), m, n))
    return inputs


def test_seeded_witnesses_match_pinned_fingerprint():
    # witnesses of an earlier release: a refactor must leave them identical
    witnesses = [find_witness(c) for c in vasc_perturbations()]
    assert sum(w is not None for w in witnesses) == 12
    for c, w in zip(vasc_perturbations(), witnesses):
        assert w is None or eval_form(c, *w) < 0
    text = json.dumps([w and [str(v) for v in w] for w in witnesses])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "28c3a53252442e555f2c5ce95a0da90c3da25217a78ac7a70cecf64d8699accc"


def test_find_negative_t_sign_is_exact():
    c = CyclicParams(F(29, 8), -1, -2, 4)
    g = reduce_to_g(c).to_unipoly()
    t = _find_negative_t(g, _Budget(10 ** 6))
    assert t is not None and t >= 0
    assert sgn(g.eval(t)) < 0


def test_find_negative_t_none_for_nonneg():
    g = reduce_to_g(CyclicParams(0, 0, 0, 0)).to_unipoly()
    assert _find_negative_t(g, _Budget(10 ** 5)) is None


def three_evaluation_find_negative_t(g, budget):
    """The bisection as it was before brackets carried their end counts:
    the chain is evaluated at lo, mid and hi for every midpoint."""
    if g.is_zero or g.degree < 1:
        return None
    if sgn(g.eval(F(0))) < 0:
        return F(0)
    chain, vars_minus_inf, vars_plus_inf = squarefree_sturm(g)
    total_roots = vars_minus_inf - vars_plus_inf
    top = F(2)
    while chain_variations(chain, -top) - chain_variations(chain, top) < total_roots:
        top *= 2
        if not budget.spend(len(chain)):
            return None
    if sgn(g.eval(top)) < 0:
        return top
    queue = []
    roots_up_to_top = chain_variations(chain, F(0)) - chain_variations(chain, top)
    if roots_up_to_top > 0:
        queue.append((F(0), top, roots_up_to_top))
    while queue:
        lo, hi, _count = queue.pop(0)
        mid = (lo + hi) / 2
        if not budget.spend(len(chain) + 1):
            return None
        if sgn(g.eval(mid)) < 0:
            return mid
        vlo, vmid, vhi = (chain_variations(chain, x) for x in (lo, mid, hi))
        if vlo - vmid > 0:
            queue.append((lo, mid, vlo - vmid))
        if vmid - vhi > 0:
            queue.append((mid, hi, vmid - vhi))
    return None


def dyadic_root_quartics(count):
    """Quartics a0*t**4 + a1*t**3 + a2*t**2 + a4, the shape of g, negative
    only between a dyadic root rho and a root sigma near it.

    A midpoint can land on rho, and only then does the bisection queue two
    brackets at once, so only these inputs see the order of the queue.
    reduce_to_g of (3/4, 9/2, 1/4, 1/4) is one: 27/4 * (t**4 - 2*t**3 + 1).
    """
    rng = random.Random(73)
    gs = []
    for _ in range(count):
        rho = F(rng.randint(1, 12), 2 ** rng.randint(0, 3))
        sigma = rho + rng.choice((1, -1)) * F(1, 3 * 10 ** rng.randint(1, 4))
        s, p = rho + sigma, rho * sigma
        # (t**2 - s*t + p) * (a*t**2 + b*t + c), whose linear term vanishes
        c = F(rng.randint(1, 6))
        b = s * c / p
        a = c / p + rng.randint(0, 3)
        gs.append(UniPoly([a, b - a * s, c - b * s + a * p, 0, c * p]))
    return gs


def bisection_inputs():
    """Reduced quartics near Vasc's boundary, along the pinned direction and
    four random ones, and from two strata; then quartics of g's shape with
    a dyadic root."""
    rng = random.Random(71)
    inputs = vasc_perturbations()
    for _ in range(4):
        inputs += vasc_perturbations(
            tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))
    inputs += [
        stratum_sampler(stratum, random.Random(seed))
        for stratum in ("generic", "f3_zero")
        for seed in range(100)
    ]
    inputs.append(CyclicParams(F(3, 4), F(9, 2), F(1, 4), F(1, 4)))
    return [reduce_to_g(c).to_unipoly() for c in inputs] + dyadic_root_quartics(30)


def test_find_negative_t_matches_the_three_evaluation_bisection():
    gs = bisection_inputs()
    assert len(gs) >= 200
    spent = []
    for g in gs:
        new, old = _Budget(40000), _Budget(40000)
        assert _find_negative_t(g, new) == three_evaluation_find_negative_t(g, old)
        assert new.left == old.left
        spent.append(40000 - new.left)
    assert sum(s > 0 for s in spent) >= 100
    # a few inputs with the longest searches, at every budget up to theirs:
    # the budget runs out at each doubling and each midpoint in turn
    longest = sorted(zip(spent, range(len(gs))), reverse=True)[:3]
    for amount, index in longest:
        for budget in range(amount + 2):
            new, old = _Budget(budget), _Budget(budget)
            assert _find_negative_t(gs[index], new) == three_evaluation_find_negative_t(
                gs[index], old)
            assert new.left == old.left


def test_find_negative_t_evaluates_the_chain_once_per_midpoint(monkeypatch):
    # Every UniPoly.eval in _find_negative_t, as (polynomial, point).  g is
    # signed at 0 first; when the chain is evaluated at 0 too, bisection
    # follows it, and each later point is a midpoint.  Midpoints follow one
    # another without repeating.
    calls = []
    inner = UniPoly.eval

    def counted(self, x):
        calls.append((self, x))
        return inner(self, x)

    bisected = {True: 0, False: 0}
    returned = 0
    for g in bisection_inputs():
        chain, _, _ = squarefree_sturm(g)
        squarefree = chain[0] is g
        calls.clear()
        monkeypatch.setattr(UniPoly, "eval", counted)
        t = _find_negative_t(g, _Budget(40000))
        monkeypatch.undo()
        zeros = [i for i, (_, x) in enumerate(calls) if x == 0]
        if len(zeros) == 1:
            continue
        midpoints = [list(run) for _, run in itertools.groupby(
            calls[zeros[-1] + 1:], key=lambda call: call[1])]
        if not midpoints:
            continue
        if t == midpoints[-1][0][1]:
            # the returning midpoint signs g and nothing else
            last = midpoints.pop()
            assert len(last) == 1 and last[0][0] is g
            returned += 1
        for run in midpoints:
            assert len(run) == (len(chain) if squarefree else len(chain) + 1)
        bisected[squarefree] += len(midpoints) > 1
    assert bisected[True] >= 50 and bisected[False] >= 20 and returned >= 100


def test_reduced_quartic_keeps_rational_coefficients_rational():
    # only sqrt(R) is irrational in g; the rest stay Fractions, and every
    # result matches the same g with each coefficient written in Q(sqrt(R)).
    # A rational sqrt(R) gives a rational g, so every QuadExt the package
    # builds carries g's own radicand, which is not a perfect square.
    rng = random.Random(79)
    params = vasc_perturbations()
    for _ in range(3):
        params += vasc_perturbations(
            tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))
    params += [
        stratum_sampler(stratum, random.Random(seed))
        for stratum in ("generic", "f3_zero", "case1_boundary")
        for seed in range(40)
    ]
    params += [CyclicParams(0, 0, 0, 0), CyclicParams(0, 0, 1, 1), CyclicParams(2, 0, 0, 0)]
    checked = squares = 0
    for c in params:
        rad = radicand(c)
        g = reduce_to_g(c).to_unipoly()
        if is_perfect_square(rad):
            assert all(type(v) is F for v in g.coeffs)
            squares += 1
            continue
        derived = [g, *sturm_chain(g), *(f for f, _ in squarefree_decompose(g))]
        for v in (v for p in derived for v in p.coeffs):
            assert type(v) is F or (type(v) is QuadExt and v.radicand == rad)
        if g.degree < 4:
            continue
        a0, a1, a2, a3, a4 = g.coeffs
        assert all(type(v) is F for v in (a0, a2, a3, a4)) and type(a1) is QuadExt
        lifted = UniPoly([v if isinstance(v, QuadExt) else QuadExt(v, 0, rad) for v in g.coeffs])
        assert sturm_chain(g) == sturm_chain(lifted)
        assert squarefree_decompose(g) == squarefree_decompose(lifted)
        assert is_nonneg_everywhere(g) == is_nonneg_everywhere(lifted)
        budget, lifted_budget = _Budget(40000), _Budget(40000)
        assert _find_negative_t(g, budget) == _find_negative_t(lifted, lifted_budget)
        assert budget.left == lifted_budget.left
        checked += 1
    assert checked >= 150 and squares >= 3


def test_decide_dispatch_and_variants():
    c = CyclicParams(0, 0, 0, 0)
    assert decide(c, "structural").method == "structural"
    assert decide(c, "oracle").method == "sturm_oracle"
    for variant in CLOSED_FORM_VARIANTS:
        v = decide(c, f"closed-{variant}")
        assert v.method == f"closed_form_{variant}"
        assert v.is_psd
    with pytest.raises(ValueError):
        decide(c, "nope")


def test_verdict_witness_consistency():
    with pytest.raises(ValueError):
        Verdict(is_psd=True, method="structural", fired_clause="x",
                witness=(F(1), F(1), F(1)))


def test_attach_witness():
    c = CyclicParams(0, 0, -3, 0)
    v = attach_witness(c, decide_structural(c))
    assert v.witness == (1, 1, 1) and v.witness_value == -6
    c = CyclicParams(0, 0, 0, 0)
    v = attach_witness(c, decide_structural(c))
    assert v.witness is None


def test_small_integer_grid_deciders_agree_and_witness_every_not_psd():
    # every (k, l, m, n) in {-2, ..., 2}**4: the structural decision, the
    # Sturm oracle (over Q(sqrt R) wherever sqrt R is irrational) and the
    # corrected closed form agree, and each NotPSD point has a witness
    counts = {True: 0, False: 0}
    for k, l, m, n in itertools.product(range(-2, 3), repeat=4):
        c = CyclicParams(k, l, m, n)
        structural = decide_structural(c).is_psd
        assert decide_oracle(c).is_psd == structural, (k, l, m, n)
        assert decide_closed_form(c, "corrected").is_psd == structural, (k, l, m, n)
        if not structural:
            w = find_witness(c)
            assert w is not None and eval_form(c, *w) < 0, (k, l, m, n)
        counts[structural] += 1
    assert counts == {True: 219, False: 406}
