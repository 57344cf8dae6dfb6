import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from cycquart import decider as decider_module
from cycquart.decider import (
    CLAUSE_POLYNOMIAL_NAMES,
    CLOSED_FORM_VARIANTS,
    DEFAULT_WITNESS_BUDGET,
    Verdict,
    _biquadratic_nonneg,
    _Budget,
    _cubic_roots,
    _find_negative_t,
    _locus_roots,
    _seeded_search,
    clause_pairs,
    clause_quotients,
    closed_form_verdict,
    decide,
    decide_closed_form,
    decide_oracle,
    decide_structural,
    eval_polys,
    find_witness,
)
from cycquart.form import (
    CyclicParams,
    eval_form,
    r_range,
    radicand,
    reduce_scaled,
    reduce_to_g,
    reduced_coefficients,
    scaled_coefficients,
)
from cycquart.harness import STRATA, published_f5, stratum_sampler
from cycquart.quartic_rules import (
    SpecialQuartic,
    discriminant_cofactors,
    discriminant_rule,
    discriminants,
    p_polynomial,
)
from cycquart.roots import is_nonneg_everywhere
from cycquart.scalars import QuadExt, rational_sqrt, sgn
from cycquart.unipoly import (
    UniPoly,
    chain_variations,
    squarefree_decompose,
    squarefree_factors,
    squarefree_sturm,
    sturm_chain,
)
from test_form import is_perfect_square, paper_g
from test_identities import symbolic_polys


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
    # D2(g) = 108*f1^2*f6, D3(g) = 324*f1^2*f7, D4(g) = 104976*f1^2*f3*f5,
    # with the clause polynomials as the paper prints them: eval_polys reads
    # f5, f6 and f7 off the cofactors of these same discriminants, so a
    # comparison with its values could not fail
    rng = random.Random(59)
    checked = 0
    for _ in range(150):
        c = rand_params(rng)
        P = SimpleNamespace(**published_clause_polynomials(c.k, c.l, c.m, c.n))
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


def published_clause_polynomials(k, l, m, n) -> dict:
    """The eleven clause polynomials as the paper prints them, f5 from its
    one copy in the package (the ``f5_zero_near`` ranking key), in any
    ring; eval_polys reads them off the form's integers, and the tests
    below check that it reads these."""
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
    return {
        "f1": 2 + k - m - n, "f2": 4 * k + m + n - 8 - 2 * l, "f3": 1 + k + m + n + l,
        "f4": 3 * (1 + k) - m**2 - n**2 - m * n, "f5": published_f5(k, l, m, n),
        "f6": f6, "f7": f7, "g1": k - 2 * m + 2, "g2": 4 * k - m**2 - 8,
        "g3": 8 + m - 2 * k, "g4": m - n,
    }


def test_discriminant_identities_hold_symbolically():
    # the same identities as polynomial identities in Q[k, l, m, n], with
    # the package's reduction and clause values evaluated on symbols.
    # Scaling g's coefficients (a0, a2, a4) by d and a1**2 by d**2 scales
    # E2, E3 and E4 by d**2, d**4 and d**5, the powers eval_polys divides by
    sympy = pytest.importorskip("sympy")
    k, l, m, n, d = sympy.symbols("k l m n d")
    g = sympy.symbols("a0 s a2 a4")
    scaled_g = (d * g[0], d**2 * g[1], d * g[2], d * g[3])
    for power, e, e_scaled in zip(
        (2, 4, 5), discriminant_cofactors(*g), discriminant_cofactors(*scaled_g)
    ):
        assert sympy.expand(e_scaled - d**power * e) == 0, power
    # each of the eleven values eval_polys reads off d*(1, k, l, m, n), at
    # any common denominator d, is the published polynomial
    scaled = (d, d * k, d * l, d * m, d * n)
    numerators, denominators = clause_quotients(scaled, (d, *reduce_scaled(*scaled)))
    published = published_clause_polynomials(k, l, m, n)
    assert tuple(published) == CLAUSE_POLYNOMIAL_NAMES
    for name, p, q in zip(CLAUSE_POLYNOMIAL_NAMES, numerators, denominators):
        assert sympy.expand(p - q * published[name]) == 0, name
    P = symbolic_polys(SimpleNamespace(k=k, l=l, m=m, n=n))
    a0, rad, a2, a4, _ = reduce_scaled(1, k, l, m, n)
    quartic = SimpleNamespace(a0=a0, a1_squared=rad, a2=a2, a4=a4)
    _, d2, d3, d4 = discriminants(quartic)
    assert sympy.expand(d2 - 108 * P.f1 ** 2 * P.f6) == 0
    assert sympy.expand(d3 - 324 * P.f1 ** 2 * P.f7) == 0
    assert sympy.expand(d4 - 104976 * P.f1 ** 2 * P.f3 * P.f5) == 0


def test_reduction_identities_hold_symbolically():
    # the identities that decide_structural's R = 0 and f3 = 0 branches and
    # the corrected closed form's k + m - 1 >= 0 guard rest on, with g's
    # coefficients from the package's reduction (a0 = 3*f1, a2 =
    # 3*(4+m+n-l), a4 = f3)
    sympy = pytest.importorskip("sympy")
    k, l, m, n = sympy.symbols("k l m n")

    def reduced(c):
        P = symbolic_polys(c)
        a0, rad, a2, a4, f2 = reduce_scaled(1, c.k, c.l, c.m, c.n)
        assert sympy.expand(a0 - 3 * P.f1) == 0 and sympy.expand(a4 - P.f3) == 0
        assert sympy.expand(f2 - P.f2) == 0
        return P, a0, a2, a4, rad

    # R = 0: m = n and f2 = 0
    P, a0, a2, a4, rad = reduced(SimpleNamespace(k=k, l=2 * k + m - 4, m=m, n=m))
    assert sympy.expand(rad) == 0
    for a, g in ((a0, P.g1), (a2, P.g3), (a4, k + m - 1)):
        assert sympy.expand(a - 3 * g) == 0
    assert sympy.expand(4 * P.g1 * (k + m - 1) - P.g3 ** 2 - 9 * P.g2) == 0
    # f3 = 0
    P, a0, a2, a4, rad = reduced(SimpleNamespace(k=k, l=-(1 + k + m + n), m=m, n=n))
    assert sympy.expand(a4) == 0
    assert sympy.expand(4 * a0 * a2 - rad - 108 * P.f4) == 0


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


# Boundary forms that decide a comparison no stratum reaches: the verdict
# and fired clause of structural, oracle, closed-theorem, closed-proof and
# closed-corrected, in that order.
BOUNDARY_PINS = {
    # F = (x+y+z)**4: g = 27, so lead 0 and b = 0 in the biquadratic; m = 4
    (6, 12, 4, 4): [
        (True, "R=0/biquadratic/lead=0/b>=0,c>=0"), (True, "g-nonneg"),
        (True, "case1/g1=0/1<=m<=4"), (True, "case1/g1=0/1<=m<=4"),
        (True, "case1/g1=0/1<=m<=4"),
    ],
    # g = 27*t**2: lead 0 and c = 0 in the biquadratic, so a _biquadratic_nonneg
    # that reads c >= 0 as c > 0 calls it NotPSD
    (0, -3, 1, 1): [
        (True, "R=0/biquadratic/lead=0/b>=0,c>=0"), (True, "g-nonneg"),
        (True, "case1/g1=0/1<=m<=4"), (True, "case1/g1=0/1<=m<=4"),
        (True, "case1/g1=0/1<=m<=4"),
    ],
    # a biquadratic with double roots: b*b = 4*a*c, g2 = 0
    (F(33, 4), F(35, 2), 5, 5): [
        (True, "R=0/biquadratic/c>=0/b<0/disc<=0"), (True, "g-nonneg"),
        (True, "case1/g1>0/g2>=0"), (True, "case1/g1>0/g2>=0"), (True, "case1/g1>0/g2>=0"),
    ],
    # b = 0 in the lead > 0 branch
    (4, 4, 0, 0): [
        (True, "R=0/biquadratic/c>=0/b>=0"), (True, "g-nonneg"),
        (True, "case1/g1>0/g2>=0"), (True, "case1/g1>0/g2>=0"), (True, "case1/g1>0/g2>=0"),
    ],
    # the erratum point with g3 = 0: theorem and proof wrongly accept it
    (2, -4, -4, -4): [
        (False, "R=0/biquadratic/c<0"), (False, "g-negative"),
        (True, "case1/g1>0/g3>=0"), (True, "case1/g1>0/g3>=0"), (False, "none"),
    ],
    # an exact f6 = 0 point on the f1 > 0, f3 > 0 branch (f7 = -243/2):
    # D2 = 0 there, so discriminant_rule's d2 < 0 made d2 <= 0 fires D2<0
    (F(1, 2), 2, 0, 1): [
        (True, "f3>0/quartic-rule/D4>0/D3<0"), (True, "g-nonneg"),
        (True, "case3/f5>0/f6<0|f7<0"), (True, "case3/f5>0/f6<=0|f7<=0"),
        (True, "case3/f5>0/f6<0|f7<0"),
    ],
    # exact f5 = 0 points, g = 3*(t - t0)**2 * (t**2 + b*t + c), b = 2*c/t0
    # (test_exact_f5_zero_pins_have_a_double_root): t0 = 2, c = 1 is PSD
    # with f7 = -1323/4, so a closed form that reads f5 > 0 as f5 >= 0 fires
    # case3/f5>0 here instead of case3/f5=0
    (2, 6, F(3, 2), F(3, 2)): [
        (True, "f3>0/quartic-rule/D4=0/D3<0"), (True, "g-nonneg"),
        (True, "case3/f5=0/f7<0"), (True, "case3/f5=0/f7<0"), (True, "case3/f5=0/f7<0"),
    ],
    # t0 = -2, c = 5 > t0**2: NotPSD with a double root at t0
    (14, 30, F(15, 2), F(15, 2)): [
        (False, "f3>0/quartic-rule/D4=0/fail"), (False, "g-negative"),
        (False, "none"), (False, "none"), (False, "none"),
    ],
}


def fixed_set():
    """BOUNDARY_PINS, 200 draws of every stratum but f5_zero_near (whose
    ranking by the published f5 costs about 28 ms a draw), and the
    half-integer grid of [-1, 2]**4."""
    forms = [CyclicParams(*params) for params in BOUNDARY_PINS]
    for stratum in STRATA:
        if stratum != "f5_zero_near":
            forms += [stratum_sampler(stratum, random.Random(seed)) for seed in range(200)]
    halves = [F(i, 2) for i in range(-2, 5)]
    forms += [CyclicParams(*params) for params in itertools.product(halves, repeat=4)]
    return forms


def test_closed_forms_read_the_same_verdict_off_numerators_and_values():
    # closed_form_verdict reads only signs, and each clause numerator of
    # clause_pairs has its value's sign; on the fixed set of the mutation
    # gate and draws of every stratum, f5_zero_near too, each variant returns
    # the one shared Verdict either way, and decide_closed_form reads the
    # numerators.  m's clause is also checked against m itself.
    forms = fixed_set() + [
        stratum_sampler(stratum, random.Random(seed)) for stratum in STRATA for seed in range(4)
    ]
    fired = Counter()
    for c in forms:
        values = eval_polys(c)
        numerators, denominators = clause_pairs(c)
        for name in CLAUSE_POLYNOMIAL_NAMES:
            num, den = getattr(numerators, name), getattr(denominators, name)
            assert den > 0 and F(num, den) == getattr(values, name), (c, name)
        for variant in CLOSED_FORM_VARIANTS:
            verdict = closed_form_verdict(c, values, variant)
            assert closed_form_verdict(c, numerators, variant) is verdict, (c, variant)
            assert decide_closed_form(c, variant) is verdict, (c, variant)
            in_m_clause = values.g4 == values.f2 == values.g1 == 0 and 1 <= c.m <= 4
            assert (verdict.fired_clause == "case1/g1=0/1<=m<=4") == in_m_clause, c
            fired[variant, verdict.fired_clause] += 1
    # each variant's six clauses and "none" all fire, at least four times
    assert len(fired) == 3 * 7 and min(fired.values()) >= 4


def test_boundary_comparisons_are_pinned():
    methods = ("structural", "oracle", "closed-theorem", "closed-proof", "closed-corrected")
    for params, expected in BOUNDARY_PINS.items():
        c = CyclicParams(*params)
        verdicts = [decide(c, method) for method in methods]
        assert [(v.is_psd, v.fired_clause) for v in verdicts] == expected, params


def test_exact_f5_zero_pins_have_a_double_root():
    # g = lam*(t - t0)**2 * (t**2 + b*t + c) with b = 2*c/t0 has no linear
    # term, so it is a reduced quartic; m = n puts (k, l, m, n) on it
    for params, (lam, t0, c) in {
        (2, 6, F(3, 2), F(3, 2)): (3, 2, 1),
        (14, 30, F(15, 2), F(15, 2)): (3, -2, 5),
    }.items():
        form = CyclicParams(*params)
        root = UniPoly([1, -t0])
        assert reduce_to_g(form).to_unipoly() == UniPoly([lam]) * root * root * UniPoly(
            [1, F(2 * c, t0), c])
        assert eval_polys(form).f5 == 0
    form = CyclicParams(14, 30, F(15, 2), F(15, 2))
    witness = find_witness(form)
    assert witness == (1, F(-1, 2), 0) and eval_form(form, *witness) == F(-1, 8)


def test_oracle_examples():
    assert decide_oracle(CyclicParams(2, 0, 0, 0)).is_psd
    assert not decide_oracle(CyclicParams(0, 0, 2, 2)).is_psd
    assert not decide_oracle(CyclicParams(0, 0, -3, 0)).is_psd


def test_oracle_on_a_rational_g_runs_on_the_integers_of_d_g(monkeypatch):
    # where sqrt(R) is rational, decide_oracle hands is_nonneg_everywhere the
    # integers of d*g; their Yun factors, and so every Sturm count, are those
    # of g's own polynomial, which the oracle decided before
    forms = {
        (2, 0, 0, 0): True,  # R = 0, PSD
        (F(1, 2), -3, 0, 0): False,  # R = 0, negative constant term
        (1, -2, 0, 0): True,  # R = 0, g = 9*t**2*(t**2 + 2)
        (2, 6, F(3, 2), F(3, 2)): True,  # m = n, f2 = -9: R = 81, double root
        (14, 30, F(15, 2), F(15, 2)): False,  # m = n, f2 = 3: R = 9, double root
        (F(7, 3), F(5, 6), F(1, 3), F(1, 3)): True,  # m = n, f2 = 1/3: R = 1/9
        (0, 0, 1, 1): False,  # a0 = 0: g is a cubic
        (0, 0, 2, 2): False,  # a0 < 0
        (-1, -2, 1, 1): False,  # a0 < 0 and a4 = 0
        (0, -1, 0, 0): True,  # a4 = 0: g = t**2 * (6*t**2 - 6*t + 15)
        (F(-3, 2), F(1, 2), 0, 0): False,  # a4 = 0, a0 > 0 and R > 4*a0*a2
    }
    seen = []
    monkeypatch.setattr(decider_module, "is_nonneg_everywhere",
                        lambda p: seen.append(p) or is_nonneg_everywhere(p))
    for params, psd in forms.items():
        c = CyclicParams(*params)
        d, a0, s, a2, a4, _ = reduced_coefficients(c)
        assert is_perfect_square(radicand(c)), params
        g = reduce_to_g(c).to_unipoly()
        assert decide_oracle(c).is_psd == is_nonneg_everywhere(g) == psd, params
        assert decide_structural(c).is_psd == psd, params
        ints = seen.pop()
        assert all(type(v) is int for v in ints.coeffs), params
        assert ints == g.scale(d) and ints.coeffs == UniPoly([a0, -math.isqrt(s), a2, 0, a4]).coeffs
        if g.degree > 0:
            assert [(f.coeffs, e) for f, e in squarefree_factors(ints)] == [
                (f.coeffs, e) for f, e in squarefree_factors(g)], params


def test_the_oracle_runs_on_the_integers_of_d_g_for_every_r(monkeypatch):
    # whatever R is, decide_oracle hands is_nonneg_everywhere d*g written from
    # the integers (A0, S, A2, A4) of reduced_coefficients: -sqrt(S) is an int
    # when it is rational, and QuadExt(0, -1, S), S = d**2*R, when it is not.
    # d > 0, so the verdict is that of g's own polynomial.
    rng = random.Random(89)
    forms = [stratum_sampler(stratum, random.Random(seed))
             for stratum in ("R_zero", "case1_boundary", "generic", "f3_zero")
             for seed in range(60)]
    for _ in range(120):
        k, l, m = (F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3))
        forms.append(CyclicParams(k, l, m, m))  # m = n: R = f2**2

    def exact(v):
        return (QuadExt, v.u, v.v, v.radicand) if type(v) is QuadExt else (type(v), v)

    seen = []
    monkeypatch.setattr(decider_module, "is_nonneg_everywhere",
                        lambda p: seen.append(p) or is_nonneg_everywhere(p))
    checked = Counter()
    for c in forms:
        d, a0, s, a2, a4, _ = reduced_coefficients(c)
        if d == 1:
            continue
        psd = decide_oracle(c).is_psd
        root = math.isqrt(s)
        a1 = -root if root * root == s else QuadExt(0, -1, s)
        expected = UniPoly([a0, a1, a2, 0, a4])
        assert [exact(v) for v in seen.pop().coeffs] == [exact(v) for v in expected.coeffs], c
        assert psd == is_nonneg_everywhere(reduce_to_g(c).to_unipoly()), c
        checked[chain_kind(reduce_to_g(c)), psd] += 1
    assert sum(checked.values()) >= 300
    for kind in ("zero", "square", "irrational"):
        assert checked[kind, True] + checked[kind, False] >= 30, checked


def test_structural_equals_oracle_on_random_samples():
    rng = random.Random(61)
    for _ in range(200):
        c = rand_params(rng)
        assert decide_structural(c).is_psd == decide_oracle(c).is_psd


def structural_over_q(c):
    """(is_psd, fired_clause) of decide_structural's case analysis, with
    Fraction arithmetic throughout."""
    k, l, m, n = c.k, c.l, c.m, c.n
    a0, rad, a2, a4, _ = paper_g(c)
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
    _, d2, d3, d4 = discriminants(SpecialQuartic(a0, rad, -1, a2, a4))
    ok, rule = discriminant_rule(d2, d3, d4)
    return ok, f"f3>0/quartic-rule/{rule}"


def test_structural_integers_match_a_fraction_reference():
    # stratum draws; every fifth one also scaled by 10**200 and 10**-200 and
    # redrawn with denominators up to 10**12.  An f5_zero_near draw ranks 32
    # forms by the published f5 in Fraction arithmetic, so that stratum gets
    # fewer seeds.
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


def sample_forms():
    """Stratum draws, their scalings by 10**200 and 10**-200, and draws
    with common denominators d up to 10**12."""
    inputs = []
    for stratum in STRATA:
        for seed in range(2 if stratum == "f5_zero_near" else 10):
            c = stratum_sampler(stratum, random.Random(seed))
            inputs += [c, stratum_sampler(stratum, random.Random(seed), denominator_bound=10**12)]
            inputs += [
                CyclicParams(*(v * scale for v in (c.k, c.l, c.m, c.n)))
                for scale in (F(10) ** 200, F(1, 10**200))
            ]
    return inputs


def test_clause_polynomials_match_the_published_ones_on_samples():
    # eval_polys reads each value off the form's integers and divides by a
    # power of their common denominator d; here all eleven are compared with
    # the paper's polynomials in Fraction arithmetic on sample_forms()
    inputs = sample_forms()
    assert max(scaled_coefficients(c)[0] for c in inputs) > 10**200
    for c in inputs:
        P = eval_polys(c)
        values = {name: getattr(P, name) for name in CLAUSE_POLYNOMIAL_NAMES}
        assert values == published_clause_polynomials(c.k, c.l, c.m, c.n), c


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


# find_witness written out with every sign of F read from a Fraction value
# of eval_form, each face point one by one and each probe witness built
# afresh: the reference the integer-numerator search must match
REFERENCE_PROBE_POINTS = (
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


def reference_find_witness(c, budget):
    tracker = _Budget(budget)
    for point in REFERENCE_PROBE_POINTS:
        if not tracker.spend():
            return None
        if eval_form(c, *point) < 0:
            return tuple(F(v) for v in point)
    spent = 0
    for d in (1, 2, 3, 4):
        if spent >= tracker.left:
            break
        for i, j in itertools.product(range(-d, d + 1), repeat=2):
            spent += 1
            if eval_form(c, 1, F(i, d), F(j, d)) < 0:
                return F(1), F(i, d), F(j, d)
    tracker.spend(spent)
    if tracker.left <= 0 or decide_structural(c).is_psd:
        return None
    tstar = _find_negative_t(reduce_to_g(c), tracker)
    if tstar is None:
        return None
    for xs in _locus_roots(c, tstar, tracker):
        for triple in ((xs[0], xs[1], xs[2]), (xs[0], xs[2], xs[1])):
            if not tracker.spend():
                return None
            if eval_form(c, *triple) < 0:
                return triple
    return None


@pytest.mark.parametrize("params, stage", [
    ((0, 0, -3, 0), "probe"),
    ((F(-1, 2), -1, F(3, 2), -1), "face 3"),
    ((F(29, 8), -1, -2, 4), "seeded"),
], ids=("probe", "face-3", "seeded"))
def test_find_witness_matches_the_fraction_reference_at_every_budget(params, stage):
    c = CyclicParams(*params)
    witness = reference_find_witness(c, DEFAULT_WITNESS_BUDGET)
    assert witness is not None and eval_form(c, *witness) < 0
    # the least budget that finds it, by bisection: a larger budget never
    # changes the path taken before the budget runs out
    lo, hi = 0, DEFAULT_WITNESS_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reference_find_witness(c, mid) is not None else (mid + 1, hi)
    needed = lo
    assert reference_find_witness(c, needed) == witness
    assert {"probe": needed <= 10, "face 3": 10 + 9 + 25 < needed <= 10 + 9 + 25 + 49,
            "seeded": needed > 150}[stage]
    budgets = set(range(151)) | set(range(needed - 3, needed + 4)) | {DEFAULT_WITNESS_BUDGET}
    for budget in sorted(budgets):
        expected = reference_find_witness(c, budget)
        assert find_witness(c, budget) == expected, budget
        assert expected is None or type(expected) is tuple and all(type(v) is F for v in expected)


def test_find_witness_matches_the_fraction_reference_on_a_grid():
    # with k and l down to -4, many forms are negative at several probe
    # points, so a change to the probe order changes some witness
    first_of_several = set()
    for params in itertools.product(range(-4, 5), range(-4, 5), range(-2, 3), range(-2, 3)):
        c = CyclicParams(*params)
        assert find_witness(c) == reference_find_witness(c, DEFAULT_WITNESS_BUDGET), params
        negative = [p for p in REFERENCE_PROBE_POINTS if eval_form(c, *p) < 0]
        if len(negative) > 1:
            first_of_several.add(negative[0])
    assert len(first_of_several) >= 4


def test_probe_witnesses_are_shared_fraction_tuples():
    # (1, 1, 1) is the first probe point with F < 0 for both forms
    first = find_witness(CyclicParams(0, 0, -3, 0))
    second = find_witness(CyclicParams(0, 0, -4, 0))
    assert first == (1, 1, 1) and all(type(v) is F for v in first)
    assert first is second


def test_structural_verdicts_are_shared_and_frozen():
    # two inputs of each clause get the one Verdict of that clause
    pairs = [
        ((0, 0, -3, 0), (0, 0, -4, 0)),  # f3 < 0
        ((3, 0, 0, 0), (4, 0, 0, 0)),  # f3 > 0, the quartic rule
        ((0, -1, 1, -1), (0, 0, 0, -1)),  # f3 = 0
        ((2, 0, 0, 0), (1, -2, 0, 0)),  # R = 0
    ]
    for a, b in pairs:
        first, second = decide_structural(CyclicParams(*a)), decide_structural(CyclicParams(*b))
        assert first.fired_clause == second.fired_clause
        assert first is second
    with pytest.raises(FrozenInstanceError):
        first.is_psd = not first.is_psd
    assert [f.name for f in fields(Verdict)] == ["is_psd", "method", "fired_clause"]
    # so does every other decider: on {-1, 0, 1}**4, the inputs that fire
    # one clause of a method all get the one Verdict of that clause
    deciders = [decide_structural, decide_oracle] + [
        lambda c, variant=variant: closed_form_verdict(c, eval_polys(c), variant)
        for variant in CLOSED_FORM_VARIANTS
    ]
    grid = [CyclicParams(*p) for p in itertools.product(range(-1, 2), repeat=4)]
    methods = set()
    for decider in deciders:
        verdicts = [decider(c) for c in grid]
        shared = {v.fired_clause: v for v in verdicts}
        assert all(v is shared[v.fired_clause] for v in verdicts)
        # at least two clauses of each method fire on two inputs or more
        counts = Counter(v.fired_clause for v in verdicts)
        assert sum(n >= 2 for n in counts.values()) >= 2
        methods |= {v.method for v in verdicts}
    assert len(methods) == 5


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


def fraction_cubic_roots(tstar, rstar, width, budget):
    """The bisection as it was before it ran on integer numerators: every
    end and midpoint a Fraction."""
    q = (1 - tstar * tstar) / 3
    ends = [(1 + j * tstar) / 3 for j in (-2, -1, 1, 2)]
    roots = []
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


def test_cubic_roots_match_the_fraction_bisection():
    # t* = 0, where r* = r1 = r2, then each t* with r1, r2 and a random r*
    draws = cubic_draws(random.Random(19))
    assert draws[0] == (0, F(1, 27)) and r_range(F(0)) == (F(1, 27), F(1, 27))
    # r* that puts a root of P on a midpoint, where P = 0 takes the P >= 0 side
    for t in (F(1, 2), F(3, 7), F(5)):
        ends = [(1 + j * t) / 3 for j in (-2, -1, 1, 2)]
        for lo, hi in zip(ends, ends[1:]):
            x = lo + (hi - lo) * F(3, 8)
            draws.append((t, ((x - 1) * x + (1 - t * t) / 3) * x))
    widths = [F(1, 2 ** k) for k in (0, 1, 2, 8, 16, 40)] + [F(1, 3), F(2, 7)]
    for t, r in draws:
        for width in widths:
            new, old = _Budget(10 ** 6), _Budget(10 ** 6)
            assert _cubic_roots(t, r, width, new) == fraction_cubic_roots(t, r, width, old)
            assert new.left == old.left
    # the budget runs out at each evaluation of the cubic in turn
    for t, r in draws[1:5]:
        width = F(1, 2 ** 12)
        probe = _Budget(10 ** 6)
        _cubic_roots(t, r, width, probe)
        spent = 10 ** 6 - probe.left
        assert spent > 0
        for amount in range(spent + 2):
            new, old = _Budget(amount), _Budget(amount)
            assert _cubic_roots(t, r, width, new) == fraction_cubic_roots(t, r, width, old)
            assert new.left == old.left


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
    q = reduce_to_g(CyclicParams(F(29, 8), -1, -2, 4))
    g = q.to_unipoly()
    t = _find_negative_t(q, _Budget(10 ** 6))
    assert t is not None and t >= 0
    assert sgn(g.eval(t)) < 0


def test_find_negative_t_none_for_nonneg():
    q = reduce_to_g(CyclicParams(0, 0, 0, 0))
    assert _find_negative_t(q, _Budget(10 ** 5)) is None


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
        gs.append(SpecialQuartic.from_a1(a, b - a * s, c - b * s + a * p, c * p))
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
    return [reduce_to_g(c) for c in inputs] + dyadic_root_quartics(30)


class RecordingBudget(_Budget):
    """A budget that records the amount of every ``spend``."""

    __slots__ = ("amounts",)

    def __init__(self, amount):
        super().__init__(amount)
        self.amounts = []

    def spend(self, amount=1):
        self.amounts.append(amount)
        return super().spend(amount)


def test_find_negative_t_matches_the_three_evaluation_bisection():
    qs = bisection_inputs()
    assert len(qs) >= 200
    spent = []
    for q in qs:
        new, old = RecordingBudget(40000), RecordingBudget(40000)
        g = q.to_unipoly()
        assert _find_negative_t(q, new) == three_evaluation_find_negative_t(g, old)
        # both read the budget only through what spend returns, so equal
        # charges fix the result and what is left at every smaller budget too
        assert new.amounts == old.amounts and new.left == old.left
        spent.append(40000 - new.left)
    assert sum(s > 0 for s in spent) >= 100
    # the input with the longest search, at every budget up to its own: the
    # budget runs out at each doubling and each midpoint in turn
    amount, index = max(zip(spent, range(len(qs))))
    for budget in range(amount + 2):
        new, old = _Budget(budget), _Budget(budget)
        assert _find_negative_t(qs[index], new) == three_evaluation_find_negative_t(
            qs[index].to_unipoly(), old)
        assert new.left == old.left


def chain_inputs():
    """``bisection_inputs``, then quartics with a double root at 0 whose p
    is not squarefree, with a rational sqrt(R) or R = 0:
    a0*t**2*(t - rho)*(t - sigma), negative only between two close positive
    roots, and t**2*(a*t**2 - b), negative only on (0, sqrt(b/a)), a small
    interval that the bisection reaches after a few midpoints."""
    rng = random.Random(83)
    extra = []
    for _ in range(20):
        a0 = F(rng.randint(1, 6), rng.randint(1, 3))
        rho = F(rng.randint(1, 12), rng.randint(1, 4))
        sigma = rho + F(1, rng.randint(10, 1000))
        extra.append(SpecialQuartic.from_a1(a0, -a0 * (rho + sigma), a0 * rho * sigma, 0))
        extra.append(SpecialQuartic.from_a1(rng.randint(50, 5000), 0, -rng.randint(1, 6), 0))
    return bisection_inputs() + extra


def chain_kind(quartic):
    """Which sqrt(s) the chain of ``quartic`` is read through, s = R or 1."""
    rad = quartic.a1_squared
    return "zero" if rad == 0 else "square" if is_perfect_square(rad) else "irrational"


def in_t(r, s):
    """r(sqrt(s)*t) written in t: the coefficient c of u**j times sqrt(s)**j,
    in Q(sqrt(s)) at odd j when sqrt(s) is irrational."""
    powers = range(r.degree, -1, -1)
    if is_perfect_square(s):
        root = rational_sqrt(s)
        return UniPoly([c * root ** j for j, c in zip(powers, r.coeffs)])
    return UniPoly([QuadExt(0, c * s ** (j // 2), s) if j % 2 else c * s ** (j // 2)
                    for j, c in zip(powers, r.coeffs)])


def test_rational_chain_matches_the_chain_of_g(monkeypatch):
    # For every R the chain is built on the rational p(u) = s**2 * g(u/sqrt(s)),
    # s = R, or 1 when R = 0, and read at u = sqrt(s)*t.  Entry i in t is a
    # positive multiple of the same entry of g's own chain (over Q(sqrt(R))
    # for an irrational sqrt(R)), so the two agree in length, degrees, counts
    # at -oo and +oo, and sign at every t the bisection visits.
    visited = []
    inner = SpecialQuartic.sturm_in_t

    def recorded(self):
        chain, at_minus, at_plus, at = inner(self)

        def recorded_at(t):
            visited.append(t)
            return at(t)

        return chain, at_minus, at_plus, recorded_at

    compared = Counter()
    for quartic in chain_inputs():
        g = quartic.to_unipoly()
        p = p_polynomial(quartic.a0, quartic.a1_squared, quartic.a1_sign, quartic.a2, quartic.a4)
        own, own_minus, own_plus = squarefree_sturm(g)
        chain, at_minus, at_plus, at = quartic.sturm_in_t()
        assert (at_minus, at_plus) == (own_minus, own_plus)
        assert [q.degree for q in chain] == [q.degree for q in own]
        squarefree = own[0] is g
        assert (chain[0] == p) == squarefree
        for q, ref in zip(chain, own):
            assert all(type(v) in (int, F) for v in q.coeffs)
            q = in_t(q, quartic.a1_squared or F(1))
            lead = ref.leading
            factor = q.leading * (lead.reciprocal() if isinstance(lead, QuadExt) else 1 / lead)
            assert sgn(factor) > 0 and ref.scale(factor) == q
        visited.clear()
        monkeypatch.setattr(SpecialQuartic, "sturm_in_t", recorded)
        _find_negative_t(quartic, _Budget(40000))
        monkeypatch.undo()
        for t in {F(0), *visited}:
            assert [sgn(q.eval(at(t))) for q in chain] == [sgn(q.eval(t)) for q in own]
        compared[chain_kind(quartic), squarefree] += bool(visited)
    assert compared["irrational", True] >= 100 and compared["irrational", False] >= 100
    assert compared["square", True] >= 15 and compared["square", False] >= 15
    assert compared["zero", True] >= 10 and compared["zero", False] >= 15


def test_find_negative_t_evaluates_the_chain_once_per_midpoint(monkeypatch):
    # Every UniPoly.eval in _find_negative_t, as (polynomial, point).  g is
    # signed at 0 first; when the chain is evaluated at 0 too, bisection
    # follows it.  Each midpoint t signs g and then evaluates the chain at
    # one point u = sqrt(s)*t, built once, without its head when that is p.
    # Midpoints follow one another without repeating.
    calls = []
    inner = UniPoly.eval

    def counted(self, x):
        calls.append((self, x))
        return inner(self, x)

    bisected = Counter()
    returned = 0
    for q in chain_inputs():
        g = q.to_unipoly()
        chain, _, _, at = q.sturm_in_t()
        squarefree = chain[0] == p_polynomial(q.a0, q.a1_squared, q.a1_sign, q.a2, q.a4)
        calls.clear()
        monkeypatch.setattr(UniPoly, "eval", counted)
        t = _find_negative_t(q, _Budget(40000))
        monkeypatch.undo()
        zeros = [i for i, (_, x) in enumerate(calls) if x == 0]
        if len(zeros) == 1:
            continue
        midpoints = []
        for poly, x in calls[zeros[-1] + 1:]:
            if poly is g:
                midpoints.append([(poly, x)])
            else:
                midpoints[-1].append((poly, x))
        if not midpoints:
            continue
        ts = [run[0][1] for run in midpoints]
        assert len(set(ts)) == len(ts)
        if t == ts[-1]:
            # the returning midpoint signs g and nothing else
            assert len(midpoints.pop()) == 1
            returned += 1
        for run in midpoints:
            (_, mid), rest = run[0], run[1:]
            assert [r for r, _ in rest] == (chain[1:] if squarefree else chain)
            assert len({id(u) for _, u in rest}) == 1 and rest[0][1] == at(mid)
        bisected[chain_kind(q), squarefree] += len(midpoints) > 1
    assert bisected["irrational", True] >= 20 and bisected["irrational", False] >= 20
    assert bisected["square", True] >= 15 and bisected["square", False] >= 15
    assert bisected["zero", True] >= 10 and bisected["zero", False] >= 15
    assert returned >= 100


def test_the_seeded_search_evaluates_no_quadext_coefficient(monkeypatch):
    # Every polynomial that _find_negative_t evaluates, g aside, is a chain
    # entry over Q: for an irrational sqrt(R) only the points u = sqrt(R)*t
    # and the values there are in Q(sqrt(R)).  g keeps sqrt(R) as its
    # coefficient and is signed at t.
    evaluated = []
    inner = UniPoly.eval

    def recorded(self, x):
        evaluated.append(self)
        return inner(self, x)

    irrational = 0
    for q in chain_inputs():
        g = q.to_unipoly()
        evaluated.clear()
        monkeypatch.setattr(UniPoly, "eval", recorded)
        _find_negative_t(q, _Budget(40000))
        monkeypatch.undo()
        entries = [r for r in evaluated if r is not g]
        assert all(type(v) in (int, F) for r in entries for v in r.coeffs)
        irrational += chain_kind(q) == "irrational" and bool(entries)
    assert irrational >= 150


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
        # the search, on g's own chain over Q(sqrt(R)) in the reference
        budget, lifted_budget = _Budget(40000), _Budget(40000)
        assert _find_negative_t(reduce_to_g(c), budget) == three_evaluation_find_negative_t(
            lifted, lifted_budget)
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


def test_attach_witness():
    # a witness comes from find_witness, and its value from eval_form
    c = CyclicParams(0, 0, -3, 0)
    witness = find_witness(c)
    assert witness == (1, 1, 1) and eval_form(c, *witness) == -6
    assert find_witness(CyclicParams(0, 0, 0, 0)) is None


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
