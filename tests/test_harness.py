import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from cycquart.decider import eval_polys
from cycquart.form import CyclicParams, eval_form, radicand
from cycquart.harness import (
    STRATA,
    DiscrepancyReport,
    FuzzConfig,
    fuzz_compare,
    sample_falsifier,
    stratum_sampler,
)


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(sample_count=0)
    with pytest.raises(ValueError):
        FuzzConfig(coefficient_range=(F(3), F(3)))
    with pytest.raises(ValueError):
        FuzzConfig(strata=("nope",))
    cfg = FuzzConfig(strata=["generic", "R_zero"])
    assert cfg.strata == ("generic", "R_zero")


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


def test_sample_falsifier_examples():
    assert sample_falsifier(CyclicParams(0, 0, -3, 0), 4000) is not None
    assert sample_falsifier(CyclicParams(0, 0, 0, 0), 4000) is None
    assert sample_falsifier(CyclicParams(2, 0, 0, 0), 4000) is None


def test_falsifier_point_is_exact():
    point = sample_falsifier(CyclicParams(0, 0, 2, 2), 4000)
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
    assert digest == "931d7a6828835992bbee0e5845b51176eace59dd2e51521440071722dc438e79"


def test_report_jsonl_roundtrip(tmp_path):
    cfg = FuzzConfig(sample_count=5, seed=1)
    report = fuzz_compare(cfg)
    path = tmp_path / "report.jsonl"
    report.write_jsonl(str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        json.loads(line)


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
