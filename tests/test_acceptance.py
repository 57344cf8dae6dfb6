"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded findings (the D1 normalization constant and the
strict-vs-nonstrict boundary study).
"""

import random
import time
from fractions import Fraction as F

import pytest

from cycquart.decider import (
    decide_closed_form,
    decide_oracle,
    decide_structural,
    eval_polys,
    find_witness,
)
from cycquart.form import (
    BcdeParams,
    CyclicParams,
    eval_form,
    from_bcde,
    r_range,
    radicand,
)
from cycquart.harness import STRATA, FuzzConfig, fuzz_compare
from cycquart.quartic_rules import SpecialQuartic, discriminants, is_nonneg
from cycquart.roots import classify_roots, is_nonneg_everywhere
from cycquart.unipoly import UniPoly, discriminant_sequence, sturm_count

import test_identities as identities

FUZZ_SAMPLES = 2040


@pytest.fixture(scope="module")
def fuzz_report():
    cfg = FuzzConfig(sample_count=FUZZ_SAMPLES, seed=20240817, strata=STRATA)
    started = time.monotonic()
    report = fuzz_compare(cfg)
    report.summary["_acceptance_elapsed"] = time.monotonic() - started
    return report


def rand_fraction(rng, span=9, den=7, nonzero=False):
    value = F(rng.randint(-span, span), rng.randint(1, den))
    while nonzero and value == 0:
        value = F(rng.randint(-span, span), rng.randint(1, den))
    return value


def test_criterion_1_quartic_discriminant_reproduction():
    started = time.monotonic()
    rng = random.Random(1001)
    ratios = set()
    for _ in range(200):
        a0 = rand_fraction(rng, nonzero=True)
        a1 = rand_fraction(rng)
        a2 = rand_fraction(rng)
        a4 = rand_fraction(rng)
        seq = discriminant_sequence(UniPoly([a0, a1, a2, 0, a4]))
        d1, d2, d3, d4 = discriminants(SpecialQuartic.from_a1(a0, a1, a2, a4))
        assert seq[1] == d2 and seq[2] == d3 and seq[3] == d4
        assert seq[0] > 0 and d1 > 0
        ratios.add(seq[0] / d1)
    elapsed = time.monotonic() - started
    assert len(ratios) == 1
    ratio = ratios.pop()
    assert ratio > 0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: D2..D4 exact on 200 quartics; "
          f"D1 = {ratio} * a0^2 (fixed positive constant); {elapsed:.2f}s")


def test_criterion_2_root_count_cross_validation():
    started = time.monotonic()
    rng = random.Random(1002)
    for _ in range(1000):
        degree = rng.randint(2, 6)
        coeffs = [rand_fraction(rng) for _ in range(degree + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = UniPoly(coeffs)
        assert classify_roots(p).distinct_real == sturm_count(p)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: classify_roots = sturm_count on 1000 "
          f"polynomials of degree 2-6; {elapsed:.2f}s")


def test_criterion_3_quartic_rule_vs_oracle():
    started = time.monotonic()
    rng = random.Random(1003)
    disagreements = 0
    constructed = 0
    for index in range(1000):
        if index % 20 == 0:
            # constructed double-root case (x-c)^2 (x^2+px+q) with zero
            # linear term: p = 2q/c, needs q > 0 and q != c^2
            c = rand_fraction(rng, nonzero=True)
            q = abs(rand_fraction(rng, nonzero=True))
            if q == c * c:
                q += 1
            p = 2 * q / c
            a1 = p - 2 * c
            a2 = q - 2 * c * p + c * c
            a4 = c * c * q
            quartic = SpecialQuartic.from_a1(F(1), a1, a2, a4)
            assert discriminants(quartic)[3] == 0
            constructed += 1
        else:
            quartic = SpecialQuartic.from_a1(
                abs(rand_fraction(rng, nonzero=True)),
                rand_fraction(rng, nonzero=True),
                rand_fraction(rng),
                abs(rand_fraction(rng, nonzero=True)),
            )
        if is_nonneg(quartic) != is_nonneg_everywhere(quartic.to_unipoly()):
            disagreements += 1
    elapsed = time.monotonic() - started
    assert constructed >= 50
    assert disagreements == 0
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: rule = oracle on 1000 special quartics "
          f"({constructed} constructed D4=0 cases); {elapsed:.2f}s")


def test_criterion_4_reduction_identities():
    # the proofs of test_identities.py, run here so that the acceptance
    # suite reports them under their criterion
    started = time.monotonic()
    proofs = [f for name, f in vars(identities).items() if name.startswith("test_")]
    for proof in proofs:
        proof()
    elapsed = time.monotonic() - started
    assert len(proofs) >= 6
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: power-sum, Vandermonde, symmetrization, "
          f"H(r1)*H(r2) and H(r*) identities proved in sympy "
          f"({len(proofs)} proofs); {elapsed:.2f}s")


def test_criterion_5_realizability_interval():
    rng = random.Random(1005)
    for _ in range(200):
        t = abs(rand_fraction(rng, span=6, den=5))
        r1, r2 = r_range(t)
        u = F(rng.randint(-8, 24), 16)  # lands inside and outside [0, 1]
        r = r1 + (r2 - r1) * u if r2 != r1 else r1 + (u - F(1, 2))
        q = (1 - t * t) / 3
        cubic = UniPoly([F(1), F(-1), q, -r])
        inside = r1 <= r <= r2
        assert (classify_roots(cubic).imaginary_pairs == 0) == inside
    print("\nPASS criterion 5: three real roots iff xyz lies in [r1, r2] "
          "on 200 samples")


def test_criterion_6_decider_equivalence(fuzz_report):
    summary = fuzz_report.summary
    elapsed = summary["_acceptance_elapsed"]
    assert summary["samples"] >= 2000
    # structural == oracle is a hard assertion inside fuzz_compare; its
    # completion with zero recorded disagreements is the evidence
    assert summary["structural_oracle_disagreements"] == 0
    assert summary["falsifier_hits_on_psd"] == 0
    assert summary["witness_failures"] == 0
    for record in fuzz_report.records:
        if not record["verdicts"]["structural"]["is_psd"]:
            assert record["witness"] is not None
            assert F(record["witness_value"]) < 0
        else:
            assert record["falsifier_checked"] == 4225
    assert elapsed < 300.0
    print(f"\nPASS criterion 6: structural = oracle on {summary['samples']} "
          f"samples across {len(STRATA)} strata; all NotPSD witnessed, all "
          f"PSD survived 4225-point sweeps; {elapsed:.1f}s")


def test_criterion_7_known_value_spot_checks():
    c = CyclicParams(0, 0, 0, 0)
    polys = eval_polys(c)
    assert decide_structural(c).is_psd and decide_oracle(c).is_psd
    assert (polys.f5, polys.f6, polys.f7) == (128, -32, -768)

    c = CyclicParams(2, 0, 0, 0)
    assert decide_structural(c).is_psd
    assert radicand(c) == 0

    c = CyclicParams(0, 0, -1, 0)
    verdict = decide_structural(c)
    assert verdict.is_psd and verdict.fired_clause.startswith("f3=0/")
    assert eval_polys(c).f4 == 2

    c = CyclicParams(0, 0, -3, 0)
    assert not decide_structural(c).is_psd
    witness = find_witness(c)
    assert witness == (1, 1, 1)
    assert eval_form(c, *witness) == -6

    assert from_bcde(BcdeParams(0, 0, 0, 0)) == CyclicParams(6, 12, 4, 4)
    print("\nPASS criterion 7: all known-value spot checks")


def test_criterion_8_erratum_reproduction(fuzz_report):
    c = CyclicParams(F(1, 2), -3, 0, 0)
    assert decide_closed_form(c, "theorem").is_psd
    assert not decide_structural(c).is_psd
    assert not decide_oracle(c).is_psd
    assert not decide_closed_form(c, "corrected").is_psd
    witness = find_witness(c)
    assert witness == (1, 1, 1)
    assert eval_form(c, *witness) == F(-9, 2)

    r_zero_samples = 0
    for record in fuzz_report.records:
        if record["R"] == "0":
            r_zero_samples += 1
            assert (record["verdicts"]["closed_corrected"]["is_psd"]
                    == record["verdicts"]["structural"]["is_psd"])
    assert r_zero_samples >= 600
    print(f"\nPASS criterion 8: erratum reproduced at (1/2,-3,0,0); "
          f"corrected = structural on all {r_zero_samples} R=0 samples")


def _integer_f6_zero_samples(limit=40):
    """Exact rational points with f6 = 0: solve f6 as a quadratic in l."""
    import math

    samples = []
    for k in range(-6, 7):
        for m in range(-6, 7):
            for n in range(-6, 7):
                b = 2 * k - 7 * m - 7 * n + 20
                cc = (4 * k * k - 4 * k * m - 4 * k * n + 13 * m * m - m * n
                      + 13 * n * n - 40 * k + 8 * m + 8 * n - 32)
                disc = b * b - 4 * cc
                if disc < 0:
                    continue
                root = math.isqrt(disc)
                if root * root != disc:
                    continue
                for sign in (1, -1):
                    l = F(-b + sign * root, 2)
                    samples.append(CyclicParams(F(k), l, F(m), F(n)))
                    if len(samples) >= limit:
                        return samples
    return samples


def _integer_f7_zero_samples(limit=20):
    """Exact points with f7 = 0, in the order of a scan over integer k, m, n
    in [-4, 4] and l in [-25, 25].

    For integer (k, m, n), f7 is a monic quartic in l with integer
    coefficients.  So f7 - l**4 is the cubic through its values at
    l = 0, 1, 2, 3, read at every l in Newton's forward form, whose
    binomials l*(l-1)/2 and l*(l-1)*(l-2)/6 are integers.
    """
    samples = []
    for k in range(-4, 5):
        for m in range(-4, 5):
            for n in range(-4, 5):
                q = [eval_polys(CyclicParams(k, l, m, n)).f7 - l**4
                     for l in range(4)]
                d1 = q[1] - q[0]
                d2 = q[2] - 2 * q[1] + q[0]
                d3 = q[3] - 3 * q[2] + 3 * q[1] - q[0]
                for l in range(-25, 26):
                    binom2 = l * (l - 1) // 2
                    binom3 = binom2 * (l - 2) // 3
                    if l**4 + q[0] + d1 * l + d2 * binom2 + d3 * binom3 == 0:
                        samples.append(CyclicParams(F(k), F(l), F(m), F(n)))
                        if len(samples) >= limit:
                            return samples
    return samples


# the points of the former scan, which evaluated f7 at all 51 integer l
F7_ZERO_POINTS = [
    (-4, 2, -4, 2), (-4, 2, -3, 1), (-4, 2, -2, 0), (-4, -13, -1, -1), (-4, 2, -1, -1),
    (-4, 2, 0, -2), (-4, 2, 1, -3), (-4, 2, 2, -4), (-3, 3, -4, 3), (-3, 3, -3, 2),
    (-3, 3, -2, 1), (-3, 3, -1, 0), (-3, 3, 0, -1), (-3, 3, 1, -2), (-3, 3, 2, -3),
    (-3, 3, 3, -4), (-2, 4, -4, 4), (-2, 4, -3, 3), (-2, 4, -2, 2), (-2, 4, -1, 1),
]


def test_criterion_9_closed_form_generic_agreement(fuzz_report):
    erratum = 0
    generic_checked = 0
    for record in fuzz_report.records:
        polys = {name: F(v) for name, v in record["polys"].items()}
        if any(v == 0 for v in polys.values()):
            continue
        generic_checked += 1
        theorem = record["verdicts"]["closed_theorem"]["is_psd"]
        structural = record["verdicts"]["structural"]["is_psd"]
        if record["closed_form_disagreements"]["theorem"] == "erratum-region":
            erratum += 1
            continue
        assert theorem == structural, record
    assert generic_checked >= 500

    # strict vs non-strict boundary study on exact f6 = 0 / f7 = 0 samples
    f6_zero = _integer_f6_zero_samples()
    assert len(f6_zero) >= 20
    f7_zero = _integer_f7_zero_samples()
    assert [(c.k, c.l, c.m, c.n) for c in f7_zero] == F7_ZERO_POINTS
    assert all(eval_polys(c).f7 == 0 for c in f7_zero)
    tallies = {"f6_zero": 0, "f7_zero": 0, "strict_vs_nonstrict_diff": 0,
               "erratum_hits": 0, "unexplained_diff": 0}
    for c in f6_zero + f7_zero:
        polys = eval_polys(c)
        label = "f6_zero" if polys.f6 == 0 else "f7_zero"
        tallies[label] += 1
        in_erratum = (polys.g4 == 0 and polys.f2 == 0 and polys.g1 > 0
                      and polys.g3 >= 0 and polys.g2 < 0 and c.k + c.m - 1 < 0)
        structural = decide_structural(c).is_psd
        theorem = decide_closed_form(c, "theorem").is_psd
        proof = decide_closed_form(c, "proof").is_psd
        corrected = decide_closed_form(c, "corrected").is_psd
        if theorem != proof:
            tallies["strict_vs_nonstrict_diff"] += 1
        assert corrected == structural
        if in_erratum:
            tallies["erratum_hits"] += 1
        elif theorem != structural or proof != structural:
            tallies["unexplained_diff"] += 1
    # the only closed-form defect on the sampled boundaries is the known
    # degenerate-radicand one; the strict/non-strict outcome is the finding
    assert tallies["unexplained_diff"] == 0
    if tallies["strict_vs_nonstrict_diff"] == 0:
        finding = ("the strict and non-strict readings decide identically on "
                   "every sampled boundary point, so the discrepancy between "
                   "the two published clause shapes is vacuous there")
    else:
        finding = "the strict and non-strict readings DIVERGE on the boundary"
    print(f"\nPASS criterion 9: theorem = structural on {generic_checked} "
          f"generic samples ({erratum} erratum hits excluded); boundary "
          f"study: {tallies['f6_zero']} exact f6=0 and {tallies['f7_zero']} "
          f"exact f7=0 samples, strict/non-strict variants disagreed on "
          f"{tallies['strict_vs_nonstrict_diff']}, known-erratum hits "
          f"{tallies['erratum_hits']}, unexplained differences "
          f"{tallies['unexplained_diff']}; finding: {finding}")
