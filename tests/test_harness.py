import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from cycquart.decider import eval_polys
from cycquart.form import CyclicParams, eval_form, radicand
from cycquart.harness import (
    _FALSIFIER_FACES,
    _FALSIFIER_POINTS,
    STRATA,
    DiscrepancyReport,
    FuzzConfig,
    fuzz_compare,
    stratum_sampler,
)
from cycquart.kernels import find_negative_on_faces


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


def test_sampler_rejects_a_range_without_a_bounded_denominator():
    with pytest.raises(ValueError, match="no rational with denominator <= 64"):
        stratum_sampler("generic", random.Random(0), (F(1, 1000), F(1, 999)), 64)


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
