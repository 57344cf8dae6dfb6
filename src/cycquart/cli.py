"""Command-line front end with exact rational I/O and JSON output.

All numbers are serialized as strings ("-3/7", "12") because JSON numbers
cannot carry big rationals losslessly, and every printed rational
re-parses to the identical value.  Exit codes: 0 = PSD (or success for
commands without a verdict), 1 = NotPSD, 2 = usage error, 3 = internal
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback

from .decider import (
    _METHODS,
    CLAUSE_POLYNOMIAL_NAMES,
    CLOSED_FORM_VARIANTS,
    DEFAULT_WITNESS_BUDGET,
    attach_witness,
    closed_form_verdict,
    decide,
    decide_oracle,
    decide_structural,
    eval_polys,
    find_witness,
)
from .form import BcdeParams, CyclicParams, eval_form, from_bcde, reduce_to_g
from .harness import STRATA, FuzzConfig, fuzz_compare
from .quartic_rules import SpecialQuartic, discriminants, is_nonneg
from .roots import classify_roots, is_nonneg_everywhere, revise, sign_list
from .scalars import format_rational, parse_rational
from .unipoly import UniPoly, discriminant_sequence

EXIT_PSD = 0
EXIT_NOT_PSD = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# argparse reads "-3/7" and "-1,0,1" as option flags: its own pattern for a
# negative number knows only "-3" and "-.5".  No option here starts with a
# minus and a digit, so such an argument is always a number.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _budget(text: str) -> int:
    """argparse type of the budget options: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    else:
        json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _params_from_args(args) -> CyclicParams:
    return CyclicParams(
        parse_rational(args.k),
        parse_rational(args.l),
        parse_rational(args.m),
        parse_rational(args.n),
    )


def _g_coefficients(g: SpecialQuartic) -> list[tuple]:
    """The coefficients of g = a0*t**4 - sqrt(R)*t**3 + a2*t**2 + a4, leading
    first, each as the pair (u, v) of u + v*sqrt(R)."""
    return [(g.a0, 0), (0, -1), (g.a2, 0), (0, 0), (g.a4, 0)]


def _g_strings(g: SpecialQuartic) -> list[str]:
    return [
        f"{v}*sqrt({format_rational(g.a1_squared)})" if v else format_rational(u)
        for u, v in _g_coefficients(g)
    ]


def _verdict_dict(c: CyclicParams, verdict) -> dict:
    out = {
        "is_psd": verdict.is_psd,
        "method": verdict.method,
        "fired_clause": verdict.fired_clause,
        "params": {name: format_rational(getattr(c, name)) for name in "klmn"},
    }
    if verdict.witness is not None:
        out["witness"] = [format_rational(v) for v in verdict.witness]
        out["value"] = format_rational(verdict.witness_value)
    return out


def _cmd_decide(args) -> int:
    c = _params_from_args(args)
    verdict = decide(c, args.method)
    if args.witness:
        verdict = attach_witness(c, verdict, args.budget)
    out = _verdict_dict(c, verdict)
    if args.witness and not verdict.is_psd:
        # the keys stay when the budget runs out before a witness is found
        out.setdefault("witness", None)
        out.setdefault("value", None)
    _emit(out, args.pretty)
    return EXIT_PSD if verdict.is_psd else EXIT_NOT_PSD


def _cmd_explain(args) -> int:
    c = _params_from_args(args)
    polys = eval_polys(c)
    g = reduce_to_g(c)
    verdicts = {
        "structural": decide_structural(c),
        "oracle": decide_oracle(c),
        **{
            f"closed_{variant}": closed_form_verdict(c, polys, variant)
            for variant in CLOSED_FORM_VARIANTS
        },
    }
    g_discriminants = None
    if polys.f1 != 0:
        d1, d2, d3, d4 = discriminants(g)
        g_discriminants = {
            "D1": format_rational(d1),
            "D2": format_rational(d2),
            "D3": format_rational(d3),
            "D4": format_rational(d4),
        }
    out = {
        "params": {name: format_rational(getattr(c, name)) for name in "klmn"},
        "polys": {name: format_rational(getattr(polys, name)) for name in CLAUSE_POLYNOMIAL_NAMES},
        "R": format_rational(g.a1_squared),
        "g_coefficients": _g_strings(g),
        "g_discriminants": g_discriminants,
        "verdicts": {
            name: {"is_psd": v.is_psd, "fired_clause": v.fired_clause}
            for name, v in verdicts.items()
        },
    }
    _emit(out, args.pretty)
    return EXIT_PSD if verdicts["structural"].is_psd else EXIT_NOT_PSD


def _cmd_reduce(args) -> int:
    c = _params_from_args(args)
    g = reduce_to_g(c)
    out = {
        "R": format_rational(g.a1_squared),
        "coefficients": _g_strings(g),
        "structured": [
            {"u": format_rational(u), "v": format_rational(v)}
            for u, v in _g_coefficients(g)
        ],
    }
    _emit(out, args.pretty)
    return EXIT_PSD


def _cmd_convert(args) -> int:
    b = BcdeParams(
        parse_rational(args.B),
        parse_rational(args.C),
        parse_rational(args.D),
        parse_rational(args.E),
    )
    c = from_bcde(b)
    _emit({name: format_rational(getattr(c, name)) for name in "klmn"}, args.pretty)
    return EXIT_PSD


def _parse_poly(text: str) -> UniPoly:
    coeffs = [parse_rational(part) for part in text.split(",")]
    if not coeffs:
        raise ValueError("empty coefficient list")
    return UniPoly(coeffs)


def _cmd_roots(args) -> int:
    poly = _parse_poly(args.coefficients)
    if poly.degree < 1:
        raise ValueError("root classification needs degree >= 1")
    seq = discriminant_sequence(poly)
    signs = sign_list(seq)
    revised = revise(signs)
    count = classify_roots(poly)
    out = {
        "coefficients": [format_rational(v) for v in poly.coeffs],
        "discriminant_sequence": [format_rational(v) for v in seq],
        "sign_list": signs,
        "revised_sign_list": revised,
        "v": count.imaginary_pairs,
        "nonvanishing": sum(1 for s in revised if s != 0),
        "distinct_real": count.distinct_real,
        "imaginary_pairs": count.imaginary_pairs,
    }
    _emit(out, args.pretty)
    return EXIT_PSD


def _cmd_quartic(args) -> int:
    a0 = parse_rational(args.a0)
    a1 = parse_rational(args.a1)
    a2 = parse_rational(args.a2)
    a4 = parse_rational(args.a4)
    quartic = SpecialQuartic.from_a1(a0, a1, a2, a4)
    d1, d2, d3, d4 = discriminants(quartic)
    psd = is_nonneg(quartic)
    oracle = is_nonneg_everywhere(quartic.to_unipoly())
    out = {
        "D1": format_rational(d1),
        "D2": format_rational(d2),
        "D3": format_rational(d3),
        "D4": format_rational(d4),
        "psd": psd,
        "oracle_psd": oracle,
    }
    _emit(out, args.pretty)
    return EXIT_PSD if psd else EXIT_NOT_PSD


def _cmd_witness(args) -> int:
    c = _params_from_args(args)
    witness = find_witness(c, args.budget)
    if witness is None:
        _emit({"found": False, "witness": None, "value": None}, args.pretty)
        # a spent budget finds nothing on a NotPSD form too: exit by the verdict
        return EXIT_PSD if decide_structural(c).is_psd else EXIT_NOT_PSD
    _emit(
        {
            "found": True,
            "witness": [format_rational(v) for v in witness],
            "value": format_rational(eval_form(c, *witness)),
        },
        args.pretty,
    )
    return EXIT_NOT_PSD


def _cmd_fuzz(args) -> int:
    if args.config:
        with open(args.config) as handle:
            cfg = FuzzConfig.from_dict(json.load(handle))
    else:
        cfg = FuzzConfig(
            sample_count=args.count,
            seed=args.seed,
            strata=tuple(args.strata.split(",")),
            falsifier_budget=args.falsifier_budget,
            witness_budget=args.witness_budget,
        )
    if args.out:
        # stream records as they are produced so aborted runs stay salvageable
        with open(args.out, "w") as handle:

            def sink(record):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()

            report = fuzz_compare(cfg, record_sink=sink)
    else:
        report = fuzz_compare(cfg)
    _emit(report.summary, args.pretty)
    return EXIT_PSD


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycquart",
        description=(
            "Exact positive-semidefiniteness decisions for the cyclic "
            "ternary quartic form "
            "F = sum x^4 + k sum x^2y^2 + l sum x^2yz + m sum x^3y + n sum xy^3."
        ),
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        for name in "klmn":
            p.add_argument(name, help=f"coefficient {name} (exact rational)")

    p = sub.add_parser("decide", help="decide PSD-ness of the form")
    add_params(p)
    p.add_argument(
        "--method",
        default="structural",
        choices=list(_METHODS),
    )
    p.add_argument("--witness", action="store_true", help="search for a counterexample")
    p.add_argument("--budget", type=_budget, default=DEFAULT_WITNESS_BUDGET)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("explain", help="all intermediate values and every verdict")
    add_params(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("reduce", help="the reduced quartic g(t) and its radicand R")
    add_params(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("convert", help="map sigma-basis parameters B,C,D,E to k,l,m,n")
    for name in "BCDE":
        p.add_argument(name, help=f"parameter {name} (exact rational)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("roots", help="discriminant sequence and root counts")
    p.add_argument(
        "coefficients",
        help="comma-separated rational coefficients, leading first (e.g. 1,1,0,0,1)",
    )
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("quartic", help="special quartic a0*x^4+a1*x^3+a2*x^2+a4")
    for name in ("a0", "a1", "a2", "a4"):
        p.add_argument(name, help=f"coefficient {name} (exact rational)")
    p.set_defaults(func=_cmd_quartic)

    p = sub.add_parser("witness", help="search for a rational point with F < 0")
    add_params(p)
    p.add_argument("--budget", type=_budget, default=DEFAULT_WITNESS_BUDGET)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("fuzz", help="differential testing of all deciders")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--strata",
        default="generic",
        help=f"comma-separated subset of {','.join(STRATA)}",
    )
    p.add_argument("--falsifier-budget", type=_budget, default=4000)
    p.add_argument("--witness-budget", type=_budget, default=DEFAULT_WITNESS_BUDGET)
    p.add_argument("--out", help="write per-sample JSONL records to this path")
    p.add_argument("--config", help="JSON file with the full fuzz configuration")
    p.set_defaults(func=_cmd_fuzz)

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        # a bug must not exit 1, which would read as a NotPSD verdict
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
