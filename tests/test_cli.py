import json
from decimal import Decimal

import pytest

from cycquart.cli import main
from cycquart.decider import find_witness
from cycquart.form import CyclicParams, eval_form, radicand, reduced_coefficients
from cycquart.harness import FuzzConfig
from cycquart.scalars import Fraction, format_rational, parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_decide_psd(capsys):
    code, out, _ = run_json(capsys, "decide", "0", "0", "0", "0")
    assert code == 0
    assert out["is_psd"] is True
    assert out["method"] == "structural"


def test_decide_not_psd_with_witness(capsys):
    code, out, _ = run_json(capsys, "decide", "0", "0", "-3", "0", "--witness")
    assert code == 1
    assert out["is_psd"] is False
    assert out["witness"] == ["1", "1", "1"]
    assert out["value"] == "-6"


def test_decide_methods(capsys):
    for method, expected in [
        ("structural", 1),
        ("oracle", 1),
        ("closed-theorem", 0),  # the documented erratum region
        ("closed-proof", 0),
        ("closed-corrected", 1),
    ]:
        code, out, _ = run_json(capsys, "decide", "1/2", "-3", "0", "0",
                                "--method", method)
        assert code == expected, method


def test_decide_takes_negative_fractions_as_coefficients(capsys):
    code, out, _ = run_json(capsys, "decide", "1/2", "-3/7", "0", "0")
    assert code == 0
    assert out["params"] == {"k": "1/2", "l": "-3/7", "m": "0", "n": "0"}
    code, out, _ = run_json(capsys, "decide", "-1/2", "-3/7", "-1", "-5/4",
                            "--method", "oracle")
    assert out["params"] == {"k": "-1/2", "l": "-3/7", "m": "-1", "n": "-5/4"}
    assert code == (0 if out["is_psd"] else 1)


def test_decide_negative_integer_unchanged(capsys):
    code, out, _ = run_json(capsys, "decide", "2", "0", "-3", "0")
    assert code == 0
    assert out["params"] == {"k": "2", "l": "0", "m": "-3", "n": "0"}
    assert out["fired_clause"] == "f3=0/quadratic/disc<=0"


def test_roots_takes_a_negative_leading_coefficient(capsys):
    code, out, _ = run_json(capsys, "roots", "-1,0,1")
    assert code == 0
    assert out["coefficients"] == ["-1", "0", "1"]
    assert out["distinct_real"] == 2


def test_convert(capsys):
    code, out, _ = run_json(capsys, "convert", "0", "0", "0", "0")
    assert code == 0
    assert out == {"k": "6", "l": "12", "m": "4", "n": "4"}


def test_reduce(capsys):
    code, out, _ = run_json(capsys, "reduce", "0", "0", "-1", "0")
    assert code == 0
    assert out["R"] == "108"
    assert out["coefficients"] == ["9", "-1*sqrt(108)", "9", "0", "0"]


def _explain(R, g, discriminants, params, polys, clauses, psd):
    """The expected JSON of ``explain``; ``clauses`` lists the fired clause of
    structural, oracle, closed_theorem, closed_proof and closed_corrected."""
    names = ("structural", "oracle", "closed_theorem", "closed_proof", "closed_corrected")
    return {
        "R": R,
        "g_coefficients": g,
        "g_discriminants": dict(zip(("D1", "D2", "D3", "D4"), discriminants)),
        "params": dict(zip("klmn", params.split())),
        "polys": dict(zip(("f1", "f2", "f3", "f4", "f5", "f6", "f7", "g1", "g2", "g3", "g4"),
                          polys.split())),
        "verdicts": {
            name: {"fired_clause": clause, "is_psd": psd} for name, clause in zip(names, clauses)
        },
    }


def _reduce(R, g):
    structured = [{"u": v, "v": "0"} for v in g]
    structured[1] = {"u": "0", "v": "-1"}
    return {"R": R, "coefficients": g, "structured": structured}


# R = 0 (printed -1*sqrt(0)), R = 64 (a rational sqrt(R)) and R = 108
PINNED_REDUCE_AND_EXPLAIN = {
    "2 0 0 0": (
        _reduce("0", ["12", "-1*sqrt(0)", "12", "0", "3"]),
        _explain(
            "0", ["12", "-1*sqrt(0)", "12", "0", "3"], ("144", "-165888", "0", "0"),
            "2 0 0 0", "4 0 3 9 0 -96 0 4 0 4 0",
            ["R=0/biquadratic/c>=0/b>=0", "g-nonneg"] + ["case1/g1>0/g2>=0"] * 3, True,
        ),
    ),
    "0 0 0 0": (
        _reduce("64", ["6", "-1*sqrt(64)", "12", "0", "1"]),
        _explain(
            "64", ["6", "-1*sqrt(64)", "12", "0", "1"], ("36", "-13824", "-995328", "53747712"),
            "0 0 0 0", "2 -8 1 3 128 -32 -768 2 -8 8 0",
            ["f3>0/quartic-rule/D4>0/D2<0", "g-nonneg", "case3/f5>0/f6<0|f7<0",
             "case3/f5>0/f6<=0|f7<=0", "case3/f5>0/f6<0|f7<0"],
            True,
        ),
    ),
    "0 0 -1 0": (
        _reduce("108", ["9", "-1*sqrt(108)", "9", "0", "0"]),
        _explain(
            "108", ["9", "-1*sqrt(108)", "9", "0", "0"], ("81", "-26244", "-1417176", "0"),
            "0 0 -1 0", "3 -9 0 2 54 -27 -486 4 -9 7 -1",
            ["f3=0/quadratic/disc<=0", "g-nonneg"] + ["case2/f1>0/f3=0/f4>=0"] * 3, True,
        ),
    ),
}


def test_reduce_and_explain_output_is_pinned(capsys):
    for params, (reduced, explained) in PINNED_REDUCE_AND_EXPLAIN.items():
        for command, expected in (("reduce", reduced), ("explain", explained)):
            code, out, _ = run(capsys, command, *params.split())
            assert code == 0
            assert out == json.dumps(expected, sort_keys=True) + "\n", (command, params)


# k = 29/8 + 10**-4290, written with 4292 digits above and 4291 below, under
# Python's 4300-digit limit on int/str conversion
BIG_K = f"{29 * 10**4290 + 8}/{8 * 10**4290}"

# Every pinned run of the CLI, as (argv, exit code, stdout line or None): a
# line is the whole stdout, byte for byte, and None pins the exit code only.
# Exit codes: 0 = PSD (or success), 1 = NotPSD, 2 = usage error.  Tier-1 runs
# each row through cli.main, and the CI runs it through the installed
# console script ([project.scripts]).
CLI_PINS = [
    # the structural decider on a PSD form, and the Sturm oracle on d*g in
    # Q(sqrt(R)), as sqrt(252) is irrational
    (("decide", "2", "0", "-3", "0"), 0, None),
    (("decide", "2", "0", "-3", "0", "--method", "oracle"), 0, None),
    (("decide", "0", "0", "-3", "0", "--method", "oracle"), 1, None),
    # a zero denominator is a usage error
    (("decide", "1/0", "0", "0", "0"), 2, None),
    # decide --witness exits by the verdict: 0 on a PSD form
    (("decide", "2", "0", "0", "0", "--witness", "--budget", "2000"), 0, None),
    # there is no witness subcommand: decide --witness finds witnesses
    (("witness", "0", "0", "-3", "0"), 2, None),
    # the digit limit guards the input only: BIG_K parses, and its witness's
    # value, longer than the limit, is printed; a 5000-digit k is refused
    (("decide", BIG_K, "-1", "-2", "4", "--witness"), 1, None),
    (("decide", "1" * 5000, "-1", "-2", "4"), 2, None),
    # a rational is ASCII text such as -3/7: an Arabic-Indic digit, which
    # int() would read, is refused, and so is an Arabic-Indic --budget, and
    # a coefficient with a space around it
    (("decide", "\u0661", "0", "0", "0"), 2, None),
    (("decide", "0", "0", "-3", "0", "--witness", "--budget", "\u0661\u0660"), 2, None),
    (("decide", " 2", "0", "-3", "0"), 2, None),
    # the probe points and the face grids miss (29/8, -1, -2, 4), so its
    # witness comes from the seeded search
    (("decide", "29/8", "-1", "-2", "4", "--witness"), 1, '{"fired_clause": "f3>0/quartic-rule/D4<0", "is_psd": false, "method": "structural", "params": {"k": "29/8", "l": "-1", "m": "-2", "n": "4"}, "value": "-567284820673/4947802324992", "witness": ["-727/1536", "1919/1536", "347/1536"]}'),
    # they miss (3, 2, -5/2, -5/2), R = 25, and (253, 2135/4, 127/4, 127/4),
    # R = 0, too, whose seeded searches read the Sturm chain of p(u) at a
    # rational point u = sqrt(R)*t (t itself when R = 0)
    (("decide", "3", "2", "-5/2", "-5/2", "--witness"), 1, '{"fired_clause": "f3>0/quartic-rule/D4<0", "is_psd": false, "method": "structural", "params": {"k": "3", "l": "2", "m": "-5/2", "n": "-5/2"}, "value": "-1385/884736", "witness": ["23/48", "23/48", "1/24"]}'),
    (("decide", "253", "2135/4", "127/4", "127/4", "--witness"), 1, '{"fired_clause": "R=0/biquadratic/c>=0/b<0/disc>0", "is_psd": false, "method": "structural", "params": {"k": "253", "l": "2135/4", "m": "127/4", "n": "127/4"}, "value": "-50713/33554432", "witness": ["45/64", "45/64", "-13/32"]}'),
    # a face witness: the probes miss (-1/2, -1, 3/2, -1), and face 3 finds
    # (1, -2/3, 1/3) at the 46th face point, so a change to the probe order
    # or the scan order fails here.  Faces 1 and 2 are charged whole (9 + 25
    # points), so after the ten probes a budget of 44 ends the search before
    # face 3 (witness and value null, exit 1 by the verdict) and 45 finds it
    (("decide", "-1/2", "-1", "3/2", "-1", "--witness"), 1, '{"fired_clause": "f3=0/quadratic/disc>0", "is_psd": false, "method": "structural", "params": {"k": "-1/2", "l": "-1", "m": "3/2", "n": "-1"}, "value": "-4/81", "witness": ["1", "-2/3", "1/3"]}'),
    (("decide", "-1/2", "-1", "3/2", "-1", "--witness", "--budget", "44"), 1, '{"fired_clause": "f3=0/quadratic/disc>0", "is_psd": false, "method": "structural", "params": {"k": "-1/2", "l": "-1", "m": "3/2", "n": "-1"}, "value": null, "witness": null}'),
    (("decide", "-1/2", "-1", "3/2", "-1", "--witness", "--budget", "45"), 1, '{"fired_clause": "f3=0/quadratic/disc>0", "is_psd": false, "method": "structural", "params": {"k": "-1/2", "l": "-1", "m": "3/2", "n": "-1"}, "value": "-4/81", "witness": ["1", "-2/3", "1/3"]}'),
    # a probe witness, (1, 1, 1), and a budget that runs out before one is found
    (("decide", "0", "0", "-3", "0", "--witness"), 1, '{"fired_clause": "f3<0/g(0)<0", "is_psd": false, "method": "structural", "params": {"k": "0", "l": "0", "m": "-3", "n": "0"}, "value": "-6", "witness": ["1", "1", "1"]}'),
    (("decide", "0", "0", "-3", "0", "--witness", "--budget", "0"), 1, '{"fired_clause": "f3<0/g(0)<0", "is_psd": false, "method": "structural", "params": {"k": "0", "l": "0", "m": "-3", "n": "0"}, "value": null, "witness": null}'),
    # on a PSD form neither witness key is printed
    (("decide", "2", "0", "0", "0", "--witness"), 0, '{"fired_clause": "R=0/biquadratic/c>=0/b>=0", "is_psd": true, "method": "structural", "params": {"k": "2", "l": "0", "m": "0", "n": "0"}}'),
    # the Sturm oracle in Z[t] on two R = 0 forms: g = 3*(52t^4 - 47t^2 + 4)
    # has real roots, and g = 9t^2*(t^2 + 2) a double root at 0, so Yun's
    # loop runs in Z
    (("decide", "20", "21", "-15", "-15", "--method", "oracle"), 1, '{"fired_clause": "g-negative", "is_psd": false, "method": "sturm_oracle", "params": {"k": "20", "l": "21", "m": "-15", "n": "-15"}}'),
    (("decide", "1", "-2", "0", "0", "--method", "oracle"), 0, '{"fired_clause": "g-nonneg", "is_psd": true, "method": "sturm_oracle", "params": {"k": "1", "l": "-2", "m": "0", "n": "0"}}'),
    # the Sturm oracle on d*g with d > 1 and an irrational sqrt(R), where the
    # cubic coefficient is -sqrt(d^2*R): d = 2 and R = 79, PSD through Yun
    # and Sturm, and d = 8 and R = 4329/4, NotPSD
    (("decide", "-1/2", "-1/2", "0", "1/2", "--method", "oracle"), 0, '{"fired_clause": "g-nonneg", "is_psd": true, "method": "sturm_oracle", "params": {"k": "-1/2", "l": "-1/2", "m": "0", "n": "1/2"}}'),
    (("decide", "29/8", "-1", "-2", "4", "--method", "oracle"), 1, '{"fired_clause": "g-negative", "is_psd": false, "method": "sturm_oracle", "params": {"k": "29/8", "l": "-1", "m": "-2", "n": "4"}}'),
    # the erratum region (R = 0, g1 > 0, g2 < 0, g3 >= 0, k + m - 1 < 0): the
    # theorem accepts it by case1/g1>0/g3>=0, and the corrected variant's
    # guard refuses it
    (("decide", "0", "-6", "-2", "-2", "--method", "closed-theorem"), 0, '{"fired_clause": "case1/g1>0/g3>=0", "is_psd": true, "method": "closed_form_theorem", "params": {"k": "0", "l": "-6", "m": "-2", "n": "-2"}}'),
    (("decide", "0", "-6", "-2", "-2", "--method", "closed-corrected"), 1, '{"fired_clause": "none", "is_psd": false, "method": "closed_form_corrected", "params": {"k": "0", "l": "-6", "m": "-2", "n": "-2"}}'),
    # x**4 + 1 and x**5 - x, whose remainder sequences of (f, f') skip
    # degrees, so some discriminants vanish between nonzero ones
    (("roots", "1,0,0,0,1"), 0, '{"coefficients": ["1", "0", "0", "0", "1"], "discriminant_sequence": ["4", "0", "0", "256"], "distinct_real": 0, "imaginary_pairs": 2, "nonvanishing": 4, "revised_sign_list": [1, -1, -1, 1], "sign_list": [1, 0, 0, 1], "v": 2}'),
    (("roots", "1,0,0,0,-1,0"), 0, '{"coefficients": ["1", "0", "0", "0", "-1", "0"], "discriminant_sequence": ["5", "0", "0", "-320", "-256"], "distinct_real": 3, "imaginary_pairs": 1, "nonvanishing": 5, "revised_sign_list": [1, -1, -1, -1, -1], "sign_list": [1, 0, 0, -1, -1], "v": 1}'),
    # D4 < 0: NotPSD by the rule and by the oracle
    (("quartic", "1", "-3", "1", "1"), 1, '{"D1": "1", "D2": "19", "D3": "-33", "D4": "-783", "oracle_psd": false, "psd": false}'),
    # explain on (29/8, -1, -2, 4); on (0, 0, 1, 1), where f1 = 0, so
    # g_discriminants is null and f6 and f7 cannot be read off D2 and D3; and
    # on (2, 6, 3/2, 3/2), an exact f5 = 0 point with d = 2, where f5 is read
    # off D4 = 0 and fires case3/f5=0/f7<0: a changed digit of any clause
    # polynomial fails here
    (("explain", "29/8", "-1", "-2", "4"), 1, '{"R": "4329/4", "g_coefficients": ["87/8", "-1*sqrt(4329/4)", "21", "0", "45/8"], "g_discriminants": {"D1": "7569/64", "D2": "42984351/256", "D3": "-96184467765/8192", "D4": "-60340878450675/8192"}, "params": {"k": "29/8", "l": "-1", "m": "-2", "n": "4"}, "polys": {"f1": "29/8", "f2": "21/2", "f3": "45/8", "f4": "15/8", "f5": "-243015/256", "f6": "1893/16", "f7": "-1411965/512", "g1": "77/8", "g2": "5/2", "g3": "-5/4", "g4": "-6"}, "verdicts": {"closed_corrected": {"fired_clause": "none", "is_psd": false}, "closed_proof": {"fired_clause": "none", "is_psd": false}, "closed_theorem": {"fired_clause": "none", "is_psd": false}, "oracle": {"fired_clause": "g-negative", "is_psd": false}, "structural": {"fired_clause": "f3>0/quartic-rule/D4<0", "is_psd": false}}}'),
    (("explain", "0", "0", "1", "1"), 1, '{"R": "36", "g_coefficients": ["0", "-1*sqrt(36)", "18", "0", "3"], "g_discriminants": null, "params": {"k": "0", "l": "0", "m": "1", "n": "1"}, "polys": {"f1": "0", "f2": "-6", "f3": "3", "f4": "0", "f5": "-81", "f6": "9", "f7": "324", "g1": "0", "g2": "-9", "g3": "9", "g4": "0"}, "verdicts": {"closed_corrected": {"fired_clause": "none", "is_psd": false}, "closed_proof": {"fired_clause": "none", "is_psd": false}, "closed_theorem": {"fired_clause": "none", "is_psd": false}, "oracle": {"fired_clause": "g-negative", "is_psd": false}, "structural": {"fired_clause": "f3>0/f1<=0", "is_psd": false}}}'),
    (("explain", "2", "6", "3/2", "3/2"), 0, '{"R": "81", "g_coefficients": ["3", "-1*sqrt(81)", "3", "0", "12"], "g_discriminants": {"D1": "9", "D2": "1539", "D3": "-107163", "D4": "0"}, "params": {"k": "2", "l": "6", "m": "3/2", "n": "3/2"}, "polys": {"f1": "1", "f2": "-9", "f3": "12", "f4": "9/4", "f5": "0", "f6": "57/4", "f7": "-1323/4", "g1": "1", "g2": "-9/4", "g3": "11/2", "g4": "0"}, "verdicts": {"closed_corrected": {"fired_clause": "case3/f5=0/f7<0", "is_psd": true}, "closed_proof": {"fired_clause": "case3/f5=0/f7<0", "is_psd": true}, "closed_theorem": {"fired_clause": "case3/f5=0/f7<0", "is_psd": true}, "oracle": {"fired_clause": "g-nonneg", "is_psd": true}, "structural": {"fired_clause": "f3>0/quartic-rule/D4=0/D3<0", "is_psd": true}}}'),
]
PINNED = {argv: (code, line) for argv, code, line in CLI_PINS}


def test_every_pinned_cli_run_holds(capsys):
    assert len(PINNED) == len(CLI_PINS)
    failed = []
    for argv, code, line in CLI_PINS:
        got, out, _ = run(capsys, *argv)
        if got != code or line is not None and out != line + "\n":
            failed.append((" ".join(argv)[:80], got, out[:200]))
    assert failed == []


# Witnesses of the seeded search at a rational sqrt(R), R = 25 and R = 0,
# whose Sturm chain is read at a rational point u = sqrt(R)*t (t itself when
# R = 0); their lines are CLI_PINS rows.
SEEDED_AT_A_RATIONAL_SQRT_R = {
    ("3", "2", "-5/2", "-5/2"): 25,
    ("253", "2135/4", "127/4", "127/4"): 0,
}


def test_seeded_witnesses_at_a_rational_sqrt_r_are_pinned(capsys):
    for params, rad in SEEDED_AT_A_RATIONAL_SQRT_R.items():
        c = CyclicParams(*map(parse_rational, params))
        assert radicand(c) == rad
        # the ten probes and the face grids of denominators 1 to 4 miss
        assert find_witness(c, 10 + 9 + 25 + 49 + 81) is None
        argv = ("decide", *params, "--witness")
        code, line = PINNED[argv]
        assert code == 1 and run(capsys, *argv)[:2] == (code, line + "\n")


# The Sturm oracle on forms with common denominator d > 1 and an irrational
# sqrt(R): it runs on d*g, over Q(sqrt(d**2*R)) = Q(sqrt(R)).  The first is
# PSD through Yun's decomposition and a Sturm count; their lines are
# CLI_PINS rows.
ORACLE_AT_AN_IRRATIONAL_SQRT_R = {
    ("-1/2", "-1/2", "0", "1/2"): (2, 79, 0),
    ("29/8", "-1", "-2", "4"): (8, Fraction(4329, 4), 1),
}


def test_oracle_runs_at_an_irrational_sqrt_r_are_pinned(capsys):
    for params, (d, rad, exit_code) in ORACLE_AT_AN_IRRATIONAL_SQRT_R.items():
        c = CyclicParams(*map(parse_rational, params))
        assert reduced_coefficients(c)[0] == d and radicand(c) == rad
        argv = ("decide", *params, "--method", "oracle")
        code, line = PINNED[argv]
        assert code == exit_code and run(capsys, *argv)[:2] == (code, line + "\n")


def test_decide_witness_keys_stay_when_the_budget_runs_out(capsys):
    code, out, _ = run_json(capsys, "decide", "0", "0", "-3", "0", "--witness", "--budget", "0")
    assert code == 1
    assert out["witness"] is None and out["value"] is None
    code, out, _ = run_json(capsys, "decide", "0", "0", "0", "0", "--witness")
    assert code == 0
    assert "witness" not in out and "value" not in out


def test_roots(capsys):
    code, out, _ = run_json(capsys, "roots", "1,1,0,0,1")
    assert code == 0
    assert out["discriminant_sequence"] == ["4", "3", "-6", "229"]
    assert out["sign_list"] == [1, 1, -1, 1]
    assert out["revised_sign_list"] == [1, 1, -1, 1]
    assert out["v"] == 2
    assert out["nonvanishing"] == 4
    assert out["distinct_real"] == 0
    assert out["imaginary_pairs"] == 2


def test_quartic(capsys):
    code, out, _ = run_json(capsys, "quartic", "1", "1", "0", "1")
    assert code == 0
    assert out == {"D1": "1", "D2": "3", "D3": "-6", "D4": "229",
                   "psd": True, "oracle_psd": True}


def test_quartic_precondition_violation_is_usage_error(capsys):
    code, _, err = run(capsys, "quartic", "1", "0", "1", "1")
    assert code == 2
    assert "error" in err


def test_witness_command(capsys):
    # the witness command is decide --witness
    code, out, _ = run_json(capsys, "decide", "0", "0", "2", "2", "--witness")
    assert code == 1
    assert out["is_psd"] is False
    assert out["witness"] == ["1", "-1", "0"]
    assert out["value"] == "-2"

    code, out, _ = run_json(capsys, "decide", "2", "0", "0", "0", "--witness",
                            "--budget", "2000")
    assert code == 0
    assert out["is_psd"] is True
    assert "witness" not in out and "value" not in out


def test_witness_command_exits_not_psd_when_the_budget_runs_out(capsys):
    # no witness is found with no budget, but the form is NotPSD all the same
    for params in ("0 0 -3 0", "0 0 2 2"):
        code, out, _ = run_json(capsys, "decide", *params.split(), "--witness",
                                "--budget", "0")
        assert code == 1
        assert out["is_psd"] is False
        assert out["witness"] is None and out["value"] is None


def test_explain_contains_rederivation_fields(capsys):
    code, out, _ = run_json(capsys, "explain", "0", "0", "0", "0")
    assert code == 0
    for name in ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "g1", "g2", "g3", "g4"):
        assert name in out["polys"]
    assert out["R"] == "64"
    assert len(out["g_coefficients"]) == 5
    assert set(out["g_discriminants"]) == {"D1", "D2", "D3", "D4"}
    assert set(out["verdicts"]) == {
        "structural", "oracle", "closed_theorem", "closed_proof",
        "closed_corrected"}
    for verdict in out["verdicts"].values():
        assert "fired_clause" in verdict


def test_malformed_input_exits_2(capsys):
    for argv in (
        ["decide", "x", "0", "0", "0"],
        ["decide", "1.5", "0", "0", "0"],
        ["decide", "3/0", "0", "0", "0"],
        ["roots", "1,oops"],
        ["roots", "5"],
        ["witness", "0", "0", "-3", "0"],  # removed: decide --witness finds witnesses
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err


def test_a_witness_past_the_int_digit_limit_is_printed(capsys):
    # k = 29/8 + 10**-4290 has 4291 digits above and below, under the
    # 4300-digit limit of int/str conversion, so it parses; the witness's
    # value and the explain fields have more digits than that
    k = Fraction(29 * 10**4290 + 8, 8 * 10**4290)
    text = format_rational(k)
    code, out, err = run_json(capsys, "decide", text, "-1", "-2", "4", "--witness")
    assert (code, err) == (1, "")
    c = CyclicParams(k, -1, -2, 4)
    witness = find_witness(c)
    assert out["witness"] == [format_rational(v) for v in witness]
    assert out["value"] == format_rational(eval_form(c, *witness))
    assert len(out["value"]) > 4300
    code, out, err = run_json(capsys, "explain", text, "-1", "-2", "4")
    assert (code, err) == (1, "")
    assert out["verdicts"]["structural"]["is_psd"] is False
    # the limit stays the input guard: a 5000-digit argument is a usage error
    code, _, err = run(capsys, "decide", "1" * 5000, "-1", "-2", "4")
    assert code == 2 and "4300" in err


def test_rationals_round_trip(capsys):
    _, out, _ = run_json(capsys, "explain", "22/7", "-3/64", "1000", "-999/13")

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, str) and "sqrt" not in node:
            try:
                value = parse_rational(node)
            except ValueError:
                return
            assert str(value) == node

    walk(out)


def test_fuzz_summary_and_jsonl(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code, out, _ = run_json(
        capsys, "fuzz", "--count", "8", "--seed", "3",
        "--strata", "generic,R_zero", "--out", str(out_path))
    assert code == 0
    assert out["samples"] == 8
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 8
    json.loads(lines[0])


def test_fuzz_config_file(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sample_count": 5, "seed": 11, "strata": ["f3_zero"]}))
    code, out, _ = run_json(capsys, "fuzz", "--config", str(cfg_path))
    assert code == 0
    assert out["samples"] == 5
    assert out["strata_counts"] == {"f3_zero": 5}


def test_fuzz_flags_override_the_config_file(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sample_count": 5, "seed": 11, "strata": ["f3_zero", "R_zero"]}))
    code, out, _ = run_json(capsys, "fuzz", "--config", str(cfg_path), "--count", "2", "--seed", "4")
    assert code == 0
    assert out["samples"] == 2
    assert out["config"] == FuzzConfig(sample_count=2, seed=4, strata=("f3_zero", "R_zero")).to_dict()
    assert out["strata_counts"] == {"f3_zero": 1, "R_zero": 1}


def test_fuzz_config_that_is_not_an_object_exits_2(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    for text in ("[]", "3", '"generic"', "null"):
        cfg_path.write_text(text)
        code, out, err = run(capsys, "fuzz", "--config", str(cfg_path), "--count", "1")
        assert code == 2
        assert out == ""
        assert "JSON object" in err and "Traceback" not in err


def test_fuzz_config_with_an_unknown_key_exits_2(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    # the two budget keys are gone: the sweep and the witness search use constants
    for key in ("bogus", "falsifier_budget", "witness_budget"):
        cfg_path.write_text(json.dumps({"sample_count": 3, key: 1}))
        code, out, err = run(capsys, "fuzz", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert key in err and "Traceback" not in err


def test_fuzz_config_with_a_wrongly_typed_value_exits_2(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sample_count": "3"}))
    code, out, err = run(capsys, "fuzz", "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert "sample_count" in err and "Traceback" not in err


def test_fuzz_config_is_read_under_the_int_digit_limit(capsys, tmp_path):
    # to_dict writes bounds of any size, and from_dict reads them back
    # through int/str conversion: a bound within Python's 4300-digit limit
    # round-trips, and a longer one is a usage error, not a traceback
    cfg = FuzzConfig(sample_count=1, coefficient_range=(-(10**900), 10**900))
    assert FuzzConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    cfg_path = tmp_path / "cfg.json"
    huge = FuzzConfig(sample_count=1, coefficient_range=(-(10**5000), 10**5000))
    cfg_path.write_text(json.dumps(huge.to_dict()))
    code, out, err = run(capsys, "fuzz", "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_fuzz_with_empty_strata_exits_2(capsys):
    code, out, err = run(capsys, "fuzz", "--count", "1", "--strata", "")
    assert code == 2
    assert out == ""
    assert "stratum" in err and "Traceback" not in err


def test_decide_rejects_a_negative_budget(capsys):
    code, out, err = run(capsys, "decide", "0", "0", "-3", "0", "--witness",
                         "--budget", "-5")
    assert code == 2
    assert out == ""
    assert "--budget" in err


# An integer flag reads the integer half of a coefficient's grammar: ASCII
# digits, with no space and no underscore, though int() reads all three.
INTEGER_FLAGS = {
    "--budget": ("decide", "0", "0", "-3", "0", "--witness", "--budget"),
    "--count": ("fuzz", "--count"),
    "--seed": ("fuzz", "--count", "1", "--seed"),
}


@pytest.mark.parametrize("argv", INTEGER_FLAGS.values(), ids=INTEGER_FLAGS)
def test_integer_flags_take_ascii_digits_only(argv, capsys):
    for value in ("\u0661\u0660", "1_0", " 7 "):
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, ""), value
        assert f"not an integer: {value!r}" in err


def test_fuzz_rejects_a_negative_witness_budget(capsys):
    # fuzz has no --witness-budget: the search uses DEFAULT_WITNESS_BUDGET, so
    # the flag exits 2 whatever its value
    for value in ("-1", "4000"):
        code, out, err = run(capsys, "fuzz", "--count", "1", "--witness-budget", value)
        assert code == 2
        assert out == ""
        assert "--witness-budget" in err


def test_fuzz_rejects_a_negative_falsifier_budget(capsys):
    # fuzz has no --falsifier-budget: the falsifier scans a fixed list of faces,
    # so the flag exits 2 whatever its value
    for value in ("-1", "4000"):
        code, out, err = run(capsys, "fuzz", "--count", "1", "--falsifier-budget", value)
        assert code == 2
        assert out == ""
        assert "--falsifier-budget" in err


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "--pretty", "decide", "0", "0", "0", "0")
    assert code == 0
    assert out.startswith("{\n")


def test_internal_assertion_exits_3(capsys, monkeypatch):
    import cycquart.cli as cli_module

    def boom(cfg):
        raise AssertionError("forced")

    monkeypatch.setattr(cli_module, "fuzz_compare", boom)
    code, _, err = run(capsys, "fuzz", "--count", "1")
    assert code == 3
    assert "internal assertion" in err


def test_unexpected_error_exits_3_with_traceback(capsys, monkeypatch):
    import cycquart.cli as cli_module

    def boom(c, method):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli_module, "decide", boom)
    code, out, err = run(capsys, "decide", "0", "0", "0", "0")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: forced" in err


# Inputs outside the one grammar of exact rationals (an int, a Fraction, or
# ASCII text such as "-3/7"): each is refused with a TypeError or ValueError,
# never read as a nearby number nor let out as a ZeroDivisionError; a CLI row
# gives its exit code
REFUSED = {
    "decimal text": (lambda: CyclicParams("0.1", 0, 0, 0), ValueError),
    "scientific text": (lambda: CyclicParams("1e3", 0, 0, 0), ValueError),
    "arabic-indic digits": (lambda: CyclicParams("\u0661/\u0662", 0, 0, 0), ValueError),
    "fullwidth digit": (lambda: parse_rational("\uff11"), ValueError),
    "bool": (lambda: CyclicParams(True, 0, 0, 0), TypeError),
    "decimal": (lambda: CyclicParams(Decimal("0.1"), 0, 0, 0), TypeError),
    "zero denominator": (lambda: CyclicParams("1/0", 0, 0, 0), ValueError),
    "config zero denominator": (lambda: FuzzConfig(coefficient_range=("1/0", 1)), ValueError),
    "config json float": (
        lambda: FuzzConfig.from_dict({"coefficient_range": [0.1, 1]}), ValueError),
    "cli arabic-indic digit": (lambda: main(["decide", "\u0661", "0", "0", "0"]), 2),
    # str.strip would drop each of these spaces, U+3000 and U+00A0 among them
    "leading space": (lambda: parse_rational(" 2"), ValueError),
    "trailing space": (lambda: parse_rational("2 "), ValueError),
    "ideographic space": (lambda: parse_rational("\u30002"), ValueError),
    "no-break space": (lambda: parse_rational("\u00a02"), ValueError),
}


@pytest.mark.parametrize("build, refusal", REFUSED.values(), ids=REFUSED)
def test_inputs_outside_the_exact_grammar_are_refused(build, refusal, capsys):
    if isinstance(refusal, int):
        assert build() == refusal
        assert "not an exact rational literal" in capsys.readouterr().err
    else:
        with pytest.raises(refusal):
            build()


def test_a_negative_decimal_reads_as_a_number_and_is_refused(capsys):
    code, out, err = run(capsys, "decide", "-.5", "0", "0", "0")
    assert (code, out) == (2, "")
    assert "not an exact rational literal: '-.5'" in err
