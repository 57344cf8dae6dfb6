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

from .decider import _METHODS, DEFAULT_WITNESS_BUDGET, decide, find_witness
from .form import BcdeParams, CyclicParams, eval_form, from_bcde, reduce_to_g
from .harness import STRATA, FuzzConfig, fuzz_compare, params_dict, record_line, verdict_table
from .quartic_rules import SpecialQuartic, discriminants, is_nonneg
from .roots import is_nonneg_everywhere, revise, root_count, sign_list
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
    """argparse type of ``decide --budget``: a nonnegative integer."""
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


def _rationals(args, names) -> list:
    """The named arguments, parsed as exact rationals in the order given."""
    return [parse_rational(getattr(args, name)) for name in names]


def _params_from_args(args) -> CyclicParams:
    return CyclicParams(*_rationals(args, "klmn"))


def _g_coefficients(g: SpecialQuartic) -> list[tuple]:
    """The coefficients of g = a0*t**4 - sqrt(R)*t**3 + a2*t**2 + a4, leading
    first, each as the pair (u, v) of u + v*sqrt(R)."""
    return [(g.a0, 0), (0, -1), (g.a2, 0), (0, 0), (g.a4, 0)]


def _g_strings(g: SpecialQuartic) -> list[str]:
    return [
        f"{v}*sqrt({format_rational(g.a1_squared)})" if v else format_rational(u)
        for u, v in _g_coefficients(g)
    ]


def _discriminant_strings(q: SpecialQuartic) -> dict:
    """``{"D1": ..., "D4": ...}``: the explicit discriminants of ``q``."""
    return {f"D{i}": format_rational(d) for i, d in enumerate(discriminants(q), 1)}


def _cmd_decide(args) -> int:
    c = _params_from_args(args)
    verdict = decide(c, args.method)
    out = {
        "is_psd": verdict.is_psd,
        "method": verdict.method,
        "fired_clause": verdict.fired_clause,
        "params": params_dict(c),
    }
    if args.witness and not verdict.is_psd:
        # the keys stay, null, when the budget runs out before a witness is found
        witness = find_witness(c, args.budget)
        found = witness is not None
        out["witness"] = [format_rational(v) for v in witness] if found else None
        out["value"] = format_rational(eval_form(c, *witness)) if found else None
    _emit(out, args.pretty)
    return EXIT_PSD if verdict.is_psd else EXIT_NOT_PSD


def _cmd_explain(args) -> int:
    c = _params_from_args(args)
    polys, verdicts, out = verdict_table(c)
    g = reduce_to_g(c)
    out["g_coefficients"] = _g_strings(g)
    out["g_discriminants"] = _discriminant_strings(g) if polys.f1 != 0 else None
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
    _emit(params_dict(from_bcde(BcdeParams(*_rationals(args, "BCDE")))), args.pretty)
    return EXIT_PSD


def _cmd_roots(args) -> int:
    poly = UniPoly([parse_rational(part) for part in args.coefficients.split(",")])
    if poly.degree < 1:
        raise ValueError("root classification needs degree >= 1")
    seq = discriminant_sequence(poly)
    signs = sign_list(seq)
    revised = revise(signs)
    count = root_count(revised)
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
    quartic = SpecialQuartic.from_a1(*_rationals(args, ("a0", "a1", "a2", "a4")))
    out = _discriminant_strings(quartic)
    psd = is_nonneg(quartic)
    out["psd"] = psd
    out["oracle_psd"] = is_nonneg_everywhere(quartic.to_unipoly())
    _emit(out, args.pretty)
    return EXIT_PSD if psd else EXIT_NOT_PSD


def _cmd_fuzz(args) -> int:
    data = {}
    if args.config:
        with open(args.config) as handle:
            data = json.load(handle)
    if isinstance(data, dict):  # from_dict refuses anything else
        flags = {"sample_count": args.count, "seed": args.seed, "strata": args.strata}
        data.update((key, value) for key, value in flags.items() if value is not None)
    cfg = FuzzConfig.from_dict(data)
    if args.out:
        # stream records as they are produced so aborted runs stay salvageable
        with open(args.out, "w") as handle:

            def sink(record):
                handle.write(record_line(record))
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

    p = sub.add_parser("fuzz", help="differential testing of all deciders")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--strata",
        type=lambda text: text.split(","),
        help=f"comma-separated subset of {','.join(STRATA)}",
    )
    p.add_argument("--out", help="write per-sample JSONL records to this path")
    p.add_argument("--config", help="JSON file of FuzzConfig keys; flags given override them")
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
