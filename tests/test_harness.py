import dataclasses
import hashlib
import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from cycquart import harness, kernels
from cycquart.cli import main
from cycquart.decider import CLOSED_FORM_VARIANTS, clause_pairs, closed_form_verdict, eval_polys
from cycquart.form import CyclicParams, eval_form, radicand, reduce_to_g
from cycquart.harness import (
    _FALSIFIER_FACES,
    _FALSIFIER_POINTS,
    STRATA,
    _classify_disagreement,
    _discriminant_identities,
    _fitting_below,
    _fitting_denominator,
    _random_rational,
    DiscrepancyReport,
    FuzzConfig,
    fuzz_compare,
    params_dict,
    stratum_sampler,
)
from cycquart.kernels import find_negative_on_faces
from cycquart.quartic_rules import discriminants
from test_decider import sample_forms


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(sample_count=0)
    with pytest.raises(ValueError):
        FuzzConfig(coefficient_range=(F(3), F(3)))
    with pytest.raises(ValueError):
        FuzzConfig(strata=("nope",))
    cfg = FuzzConfig(strata=["generic", "R_zero"])
    assert cfg.strata == ("generic", "R_zero")


def test_config_rejects_a_coefficient_range_that_is_not_a_pair():
    # a string or bytes iterates to its characters: "12" read as [1, 2]
    for bounds in ("12", b"12", "-5", 12, (1, 2, 3), [F(1)], {1, 2}):
        with pytest.raises(ValueError, match="coefficient_range"):
            FuzzConfig(coefficient_range=bounds)
    with pytest.raises(ValueError, match="coefficient_range"):
        FuzzConfig.from_dict({"sample_count": 3, "coefficient_range": "12"})
    assert FuzzConfig(coefficient_range=[-1, "1/2"]).coefficient_range == (F(-1), F(1, 2))


def test_config_roundtrip():
    cfg = FuzzConfig(sample_count=7, seed=9, strata=("f3_zero",),
                     coefficient_range=(F(-5), F("7/2")))
    again = FuzzConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_stratum_constraints_hold_exactly():
    rng = random.Random(0)
    for index in range(40):
        rng.seed(index)
        c = stratum_sampler("R_zero", rng)
        assert radicand(c) == 0
        rng.seed(index)
        c = stratum_sampler("f3_zero", rng)
        assert eval_form(c, 1, 1, 1) == 0
        rng.seed(index)
        c = stratum_sampler("f1_zero", rng)
        assert eval_form(c, 1, -1, 0) == 0
        rng.seed(index)
        c = stratum_sampler("case1_boundary", rng)
        assert radicand(c) == 0 and eval_polys(c).g2 < 0
    with pytest.raises(ValueError):
        stratum_sampler("bogus", rng)


def test_sampler_respects_bounds():
    rng = random.Random(12)
    lo, hi = F(-10), F(10)
    for _ in range(100):
        c = stratum_sampler("generic", rng, (lo, hi), 8)
        for v in (c.k, c.l, c.m, c.n):
            assert lo <= v <= hi
            assert v.denominator <= 8


@pytest.mark.parametrize("lo, hi, bound", [
    (F(1, 10), F(1, 5), 64),   # no integer inside: den 1 has no multiple there
    (F(1, 3), F(1, 2), 4),     # only dens 3 and 4 fit
    (F(-1, 64), F(1, 64), 64),
    (F(999, 1000), F(1), 64),  # only the endpoint 1 fits
    (F(1, 10), F(1, 5), 10 ** 9),
])
def test_sampler_lands_in_narrow_ranges(lo, hi, bound):
    # a drawn denominator with no multiple in [lo, hi] is redrawn among
    # those that have one, so every stratum draws without error
    rng = random.Random(3)
    for stratum in STRATA:
        for _ in range(20):
            stratum_sampler(stratum, rng, (lo, hi), bound)
    for _ in range(100):
        c = stratum_sampler("generic", rng, (lo, hi), bound)
        for v in (c.k, c.l, c.m, c.n):
            assert lo <= v <= hi
            assert v.denominator <= bound
    cfg = FuzzConfig.from_dict(
        {"sample_count": 5, "coefficient_range": [str(lo), str(hi)], "denominator_bound": bound})
    assert fuzz_compare(cfg).summary["samples"] == 5


def test_params_dict_round_trips_through_cyclic_params():
    # the strings a record writes are read back by the one grammar
    for stratum in STRATA:
        rng = random.Random(11)
        for _ in range(8 if stratum == "f5_zero_near" else 50):
            c = stratum_sampler(stratum, rng)
            assert CyclicParams(**params_dict(c)) == c


def test_config_refuses_a_float_bound():
    # 0.1 would be read as its binary value 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="coefficient_range"):
        FuzzConfig(coefficient_range=(0.1, 1))
    assert FuzzConfig(coefficient_range=("1/10", 1)).coefficient_range == (F(1, 10), F(1))


def test_fitting_denominators_are_listed_once_per_range():
    # the narrow range of [1/99991, 1/99990] fits only d = 99990 and 99991,
    # so nearly every draw falls back to the list of fitting denominators
    lo, hi, bound = F(1, 99991), F(1, 99990), 99999
    _fitting_below.cache_clear()
    rng = random.Random(0)
    for _ in range(4):
        assert _random_rational(rng, lo, hi, bound) in (lo, hi)
    info = _fitting_below.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert _fitting_below(lo, hi, bound) == (99990, 99991)


def test_sampler_rejects_a_range_without_a_bounded_denominator():
    with pytest.raises(ValueError, match="no rational with denominator <= 64"):
        stratum_sampler("generic", random.Random(0), (F(1, 1000), F(1, 999)), 64)


@pytest.mark.parametrize("bound", [10**5, 10**6, 10**12])
def test_config_refuses_a_narrow_range_that_would_stall_the_sampler(bound):
    # with no integer in [lo, hi], a draw may test each denominator below
    # 1/(hi - lo) = 10**15 up to the bound, some 4 us apiece
    lo, hi = F(1, 10**15), F(2, 10**15)
    started = time.monotonic()
    with pytest.raises(ValueError, match="holds no integer"):
        FuzzConfig(coefficient_range=(lo, hi), denominator_bound=bound)
    with pytest.raises(ValueError, match="holds no integer"):
        FuzzConfig.from_dict({"coefficient_range": [str(lo), str(hi)], "denominator_bound": bound})
    assert time.monotonic() - started < 0.5
    # below 10**5 candidates the range stands, and so does a range of any
    # width that holds an integer: every denominator fits it
    FuzzConfig(coefficient_range=(lo, hi), denominator_bound=10**5 - 1)
    FuzzConfig(coefficient_range=(1 - lo, 1 + lo), denominator_bound=bound)


def test_sampler_covers_a_wide_coefficient_range():
    cfg = FuzzConfig(coefficient_range=(F(-10 ** 12), F(10 ** 12)))
    lo, hi = cfg.coefficient_range
    rng = random.Random(cfg.seed)
    values = [
        v
        for _ in range(200)
        for c in [stratum_sampler("generic", rng, cfg.coefficient_range, cfg.denominator_bound)]
        for v in (c.k, c.l, c.m, c.n)
    ]
    assert all(lo <= v <= hi for v in values)
    assert max(abs(v) for v in values) > 10 ** 9
    assert sum(abs(v) > 10 ** 3 for v in values) > len(values) // 2


def reference_random_rational(rng, lo, hi, den_bound):
    """The sampler's draw in Fraction arithmetic, as it was written before it
    moved to the integers of lo and hi: the reference it must match."""
    e_max = 3
    while 10**e_max < max(abs(lo), abs(hi)):
        e_max += 1
    den = rng.randint(1, den_bound)
    scale = F(10 ** rng.randint(0, e_max))
    lo_eff = max(lo, -scale)
    hi_eff = min(hi, scale)
    lo_num = math.ceil(lo_eff * den)
    hi_num = math.floor(hi_eff * den)
    if lo_num > hi_num:
        lo_num, hi_num = math.ceil(lo * den), math.floor(hi * den)
    if lo_num > hi_num:
        den = _fitting_denominator(rng, lo, hi, den_bound)
        lo_num, hi_num = math.ceil(lo * den), math.floor(hi * den)
    return F(rng.randint(lo_num, hi_num), den)


@pytest.mark.parametrize("lo, hi, bound", [
    (F(-1000), F(1000), 64),
    (F(1, 3), F(1, 2), 64),
    (F(-5), F(7, 2), 12),
    (F(5000), F(6000), 7),        # outside every scale window 10**e, e <= 3
    (F(-10**12), F(10**12), 64),
    (F(-10**900), F(10**900), 64),
    (F(-7, 3), F(-1, 9), 5),
    (F(999), F(1001), 1),
    (F(-1001), F(1000), 64),      # the range's magnitude sits at lo
    (F(1, 1000), F(1, 999), 1000),  # only _fitting_denominator's d fit
    (F(-1), F(99999, 100), 3),
])
def test_sampler_draws_match_the_fraction_reference(lo, hi, bound):
    # the same values from the same calls on the generator, draw by draw
    rng, ref = random.Random(17), random.Random(17)
    for _ in range(60):
        assert _random_rational(rng, lo, hi, bound) == reference_random_rational(ref, lo, hi, bound)
        assert rng.getstate() == ref.getstate()


def fraction_identities(c, P):
    _, d2, d3, d4 = discriminants(reduce_to_g(c))
    return (
        d2 == 108 * P.f1 ** 2 * P.f6,
        d3 == 324 * P.f1 ** 2 * P.f7,
        d4 == 104976 * P.f1 ** 2 * P.f3 * P.f5,
    )


def test_integer_discriminant_identities_match_fraction_ones_and_can_fail():
    # the fuzz compares d*g's discriminants with the clause pairs of
    # clause_pairs, unreduced, in integers; on sample_forms() with f1 != 0
    # each comparison equals the Fraction one on g, and a clause value moved
    # by 1/7 (the pair n/q moved to (7*n + q)/(7*q)) fails it, so it
    # compares two values, not one with itself.
    # D4's moves f5 where f3 != 0 and f3 where f5 != 0 (f3_zero has f3 = 0)
    inputs = [c for c in sample_forms() if eval_polys(c).f1 != 0]
    assert len(inputs) > 150
    moves = 0
    for c in inputs:
        P = eval_polys(c)
        nums, dens = clause_pairs(c)
        holds = _discriminant_identities(c, nums, dens)
        assert holds == fraction_identities(c, P) == (True,) * 3, c
        for index, name, factor in ((0, "f6", None), (1, "f7", None), (2, "f5", "f3"),
                                    (2, "f3", "f5")):
            if factor is not None and getattr(P, factor) == 0:
                continue
            moved = dataclasses.replace(P, **{name: getattr(P, name) + F(1, 7)})
            num, den = getattr(nums, name), getattr(dens, name)
            holds = _discriminant_identities(
                c,
                dataclasses.replace(nums, **{name: 7 * num + den}),
                dataclasses.replace(dens, **{name: 7 * den}),
            )
            assert holds == fraction_identities(c, moved), (c, name)
            assert holds[index] is False, (c, name)
            moves += 1
    assert moves > 3 * len(inputs)


def falsifier_point(c):
    # the falsifier sweep of fuzz_compare
    point, _ = find_negative_on_faces(c, _FALSIFIER_FACES, _FALSIFIER_POINTS)
    return point


def test_sample_falsifier_examples():
    assert falsifier_point(CyclicParams(0, 0, -3, 0)) is not None
    assert falsifier_point(CyclicParams(0, 0, 0, 0)) is None
    assert falsifier_point(CyclicParams(2, 0, 0, 0)) is None


def test_falsifier_point_is_exact():
    point = falsifier_point(CyclicParams(0, 0, 2, 2))
    assert point is not None
    assert eval_form(CyclicParams(0, 0, 2, 2), *point) < 0


def test_falsifier_face_holds_every_point_of_the_halving_faces():
    # (1, i/e, j/e) on a face e dividing 32 is (1, (32/e)*i/32, (32/e)*j/32)
    (d,) = _FALSIFIER_FACES
    face = {(F(i, d), F(j, d)) for i in range(-d, d + 1) for j in range(-d, d + 1)}
    halving = {
        (F(i, e), F(j, e))
        for e in (1, 2, 4, 8, 16, 32)
        for i in range(-e, e + 1)
        for j in range(-e, e + 1)
    }
    assert face == halving and len(face) == _FALSIFIER_POINTS == 4225


def in_erratum_region(c, polys):
    """The erratum region read off the clause values: R = 0 (g4 = f2 = 0),
    g1 > 0, g3 >= 0, g2 < 0 and a negative constant term k + m - 1."""
    return (
        polys.g4 == 0
        and polys.f2 == 0
        and polys.g1 > 0
        and polys.g3 >= 0
        and polys.g2 < 0
        and c.k + c.m - 1 < 0
    )


def test_erratum_region_is_read_off_the_closed_form_verdicts():
    inside = outside_but_fired = 0
    for stratum in ("R_zero", "case1_boundary"):
        for index in range(1500):
            c = stratum_sampler(stratum, random.Random(index))
            polys = eval_polys(c)
            verdicts = {
                f"closed_{variant}": closed_form_verdict(c, polys, variant)
                for variant in CLOSED_FORM_VARIANTS
            }
            expected = in_erratum_region(c, polys)
            # the rest of the classification does not read the verdicts
            assert (_classify_disagreement(polys, verdicts) == "erratum-region") == expected, c
            inside += expected
            fired = verdicts["closed_theorem"].fired_clause == "case1/g1>0/g3>=0"
            outside_but_fired += fired and not expected
    # both sides of the k + m - 1 < 0 guard are drawn
    assert inside >= 100 and outside_but_fired >= 50


# four R_zero samples in [-10, 10] at seed 0: the last one is PSD
ABORT_CONFIG = {"sample_count": 4, "seed": 0, "strata": ["R_zero"], "coefficient_range": [-10, 10]}


def assert_fuzz_aborts(capsys, tmp_path, message):
    with pytest.raises(AssertionError, match=message):
        fuzz_compare(FuzzConfig.from_dict(ABORT_CONFIG))
    config = tmp_path / "abort.json"
    config.write_text(json.dumps(ABORT_CONFIG))
    assert main(["fuzz", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"internal assertion failed: {message}" in captured.err


def test_fuzz_aborts_on_a_structural_oracle_disagreement(capsys, tmp_path, monkeypatch):
    decide_oracle = harness.decide_oracle

    def flipped(c):
        verdict = decide_oracle(c)
        return dataclasses.replace(verdict, is_psd=not verdict.is_psd)

    monkeypatch.setattr(harness, "decide_oracle", flipped)
    assert_fuzz_aborts(capsys, tmp_path, "structural/oracle disagreement at")


def test_fuzz_aborts_on_a_falsifier_hit_on_a_psd_sample(capsys, tmp_path, monkeypatch):
    find_negative_on_faces = kernels.find_negative_on_faces

    def hit(c, schedule, budget):
        if schedule == _FALSIFIER_FACES:
            return (F(1), F(0), F(0)), 1
        return find_negative_on_faces(c, schedule, budget)

    monkeypatch.setattr(kernels, "find_negative_on_faces", hit)
    assert_fuzz_aborts(capsys, tmp_path, "falsifier refuted a PSD verdict at")


def test_fuzz_compare_smoke_all_strata():
    cfg = FuzzConfig(sample_count=36, seed=7, strata=STRATA)
    report = fuzz_compare(cfg)
    assert len(report.records) == 36
    summary = report.summary
    assert summary["structural_oracle_disagreements"] == 0
    assert summary["falsifier_hits_on_psd"] == 0
    assert summary["witness_failures"] == 0
    for variant in ("theorem", "proof", "corrected"):
        assert summary["closed_form"][variant]["unexplained"] == 0
    # corrected variant matches the structural decision everywhere sampled
    tally = summary["closed_form"]["corrected"]
    assert tally["agree"] == 36
    checked = summary["discriminant_identities"]["checked"]
    assert summary["discriminant_identities"]["holds"] == {
        "d2": checked, "d3": checked, "d4": checked}
    # the falsifier sweeps all of faces 1 to 32 on a PSD sample, and only there
    assert 0 < summary["psd_count"] < 36
    for record in report.records:
        expected = 4225 if record["verdicts"]["structural"]["is_psd"] else 0
        assert record["falsifier_checked"] == expected


def test_fuzz_with_coefficients_past_the_int_digit_limit():
    # at |k|, |l|, |m|, |n| up to 10**900 a record's f5, of degree 5 in
    # them, can have more than 4300 digits; one sample per stratum
    cfg = FuzzConfig(sample_count=len(STRATA), seed=1, strata=STRATA,
                     coefficient_range=(-10**900, 10**900))
    report = fuzz_compare(cfg)
    assert report.summary["witness_failures"] == 0
    assert report.summary["structural_oracle_disagreements"] == 0
    assert report.summary["config"]["coefficient_range"] == ["-1" + "0" * 900, "1" + "0" * 900]
    assert max(len(r["polys"]["f5"]) for r in report.records) > 4300
    # the record text of values past 2000 bits, printed by _digits in parts,
    # pinned since before the records were printed from integer pairs
    digest = hashlib.sha256(report.to_jsonl().encode()).hexdigest()
    assert digest == "c2c03a5f6a670610113efd7670b753e8bbaec2c8864a7423f619b521fb365884"


def test_fuzz_records_shape():
    cfg = FuzzConfig(sample_count=6, seed=3, strata=("generic", "f3_zero"))
    report = fuzz_compare(cfg)
    for record in report.records:
        assert set(record["verdicts"]) == {
            "structural", "oracle", "closed_theorem", "closed_proof",
            "closed_corrected"}
        if not record["verdicts"]["structural"]["is_psd"]:
            assert record["witness"] is not None or record["witness_budget_exhausted"]
            if record["witness"] is not None:
                params = CyclicParams(*(F(record["params"][x]) for x in "klmn"))
                point = tuple(F(v) for v in record["witness"])
                assert eval_form(params, *point) == F(record["witness_value"])
                assert F(record["witness_value"]) < 0


def test_determinism_byte_identical_records():
    cfg = FuzzConfig(sample_count=24, seed=99, strata=STRATA)
    first = fuzz_compare(cfg)
    second = fuzz_compare(cfg)
    assert first.to_jsonl() == second.to_jsonl()
    s1 = dict(first.summary)
    s2 = dict(second.summary)
    s1.pop("elapsed_seconds")
    s2.pop("elapsed_seconds")
    assert s1 == s2


def test_records_match_pinned_fingerprint():
    # records of an earlier release: a refactor must leave them byte-identical
    cfg = FuzzConfig(sample_count=24, seed=99, strata=STRATA)
    digest = hashlib.sha256(fuzz_compare(cfg).to_jsonl().encode()).hexdigest()
    assert digest == "e0df8f217e36a92e3430823655699b8fd4bff3c05d95008c048be3a81ae0ac80"


def test_records_of_a_narrow_range_match_pinned_fingerprint():
    # the one pin of a configuration away from the default range and
    # denominator bound: captured before the sampler moved to integers
    cfg = FuzzConfig(sample_count=24, seed=4, strata=STRATA,
                     coefficient_range=(F(-5), F(7, 2)), denominator_bound=12)
    digest = hashlib.sha256(fuzz_compare(cfg).to_jsonl().encode()).hexdigest()
    assert digest == "357d746cbd1a22603096d65dafe92d7acc6e776de49e2b4cf0899d2f5786cff9"


@pytest.mark.parametrize("cfg, expected", [
    (FuzzConfig(sample_count=24, seed=99, strata=STRATA),
     "71cf1990361ab0bef05166ef4c8db6867ef0cfdfc57e18ef725c81279e011bca"),
    # one erratum-region sample: erratum_hits and its closed_form tallies are 1
    (FuzzConfig(sample_count=30, seed=5, strata=("case1_boundary",)),
     "df4e353067b3c012f4c52e4e11e3ecd014d6b5b9ba89be84addeb4543d0d002a"),
])
def test_summary_matches_pinned_fingerprint(cfg, expected):
    # pinned while the summary was still tallied sample by sample, beside
    # the records it is now counted from
    summary = dict(fuzz_compare(cfg).summary)
    summary.pop("elapsed_seconds")
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == expected


def test_records_without_witness_points_match_the_parent():
    # the same records with each witness point reduced to whether there is
    # one: pinned before the seeded stage dropped its float candidates, so
    # only witness points may move in a change to the witness search
    cfg = FuzzConfig(sample_count=24, seed=99, strata=STRATA)
    masked = "".join(
        json.dumps({**rec, "witness": rec["witness"] is not None,
                    "witness_value": rec["witness_value"] is not None}, sort_keys=True) + "\n"
        for rec in fuzz_compare(cfg).records
    )
    digest = hashlib.sha256(masked.encode()).hexdigest()
    assert digest == "fa070e5ef652307da59427aa967d9c44a636b4e2a5e0d070ca13d083b13b9373"


def test_report_jsonl_roundtrip():
    cfg = FuzzConfig(sample_count=5, seed=1)
    report = fuzz_compare(cfg)
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == 5
    assert [json.loads(line) for line in lines] == report.records


def test_record_sink_streams_every_record():
    cfg = FuzzConfig(sample_count=6, seed=2, strata=("generic", "R_zero"))
    streamed = []
    report = fuzz_compare(cfg, record_sink=streamed.append)
    assert streamed == report.records


def test_erratum_sample_is_flagged():
    # force the erratum region through the case1_boundary stratum by
    # checking the canonical point directly
    cfg = FuzzConfig(sample_count=30, seed=5, strata=("case1_boundary",))
    report = fuzz_compare(cfg)
    tally = report.summary["closed_form"]["theorem"]
    assert tally["agree"] + tally["erratum-region"] + tally["boundary"] == 30
    assert report.summary["closed_form"]["corrected"]["agree"] == 30
