"""Differential testing of the three decision procedures.

The harness samples coefficient space (including every degenerate stratum
the case analysis branches on), runs all deciders on each sample, attacks
PSD verdicts with an exact point sweep, confirms NotPSD verdicts with
witness search, and classifies closed-form disagreements.  Structural and
oracle verdicts rest on proven equivalences, so a disagreement between
them can only be an implementation bug and aborts the run; closed-form
disagreements are findings, not errors, and are tallied.

Reports are JSON Lines (one record per sample) plus a JSON summary.
Records are byte-deterministic for a fixed configuration; the summary
additionally carries the elapsed wall time, which is excluded from any
determinism comparison.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .decider import (
    CLAUSE_POLYNOMIAL_NAMES,
    CLOSED_FORM_VARIANTS,
    ClausePolynomials,
    Verdict,
    closed_form_verdict,
    decide_oracle,
    decide_structural,
    eval_polys,
    find_witness,
)
from .form import CyclicParams, eval_form, radicand, reduced_coefficients
from .quartic_rules import discriminants_of
from .scalars import exact_rational, format_rational

__all__ = [
    "STRATA",
    "FuzzConfig",
    "DiscrepancyReport",
    "stratum_sampler",
    "published_f5",
    "params_dict",
    "verdict_table",
    "record_line",
    "fuzz_compare",
]

STRATA = ("generic", "R_zero", "f3_zero", "f1_zero", "f5_zero_near", "case1_boundary")

_FALSIFIER_FACES = (32,)
_FALSIFIER_POINTS = (2 * _FALSIFIER_FACES[-1] + 1) ** 2


@dataclass(frozen=True)
class FuzzConfig:
    sample_count: int = 200
    coefficient_range: tuple[Fraction, Fraction] = (Fraction(-1000), Fraction(1000))
    denominator_bound: int = 64
    seed: int = 0
    strata: tuple[str, ...] = ("generic",)

    def __post_init__(self):
        for name in ("sample_count", "denominator_bound", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.strata, (list, tuple)) or not self.strata:
            raise ValueError(f"strata must be a nonempty list of names, got {self.strata!r}")
        # a string is a sequence too: "12" would read as the range [1, 2]
        bounds = self.coefficient_range if isinstance(self.coefficient_range, (list, tuple)) else ()
        try:
            lo, hi = (exact_rational(v) for v in bounds)
        except (TypeError, ValueError):
            raise ValueError(
                f"coefficient_range must be two rationals, got {self.coefficient_range!r}"
            ) from None
        if not lo < hi:
            raise ValueError("coefficient_range must satisfy lo < hi")
        object.__setattr__(self, "coefficient_range", (lo, hi))
        object.__setattr__(self, "strata", tuple(self.strata))
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be positive")
        for stratum in self.strata:
            if stratum not in STRATA:
                raise ValueError(f"unknown stratum {stratum!r}")
        # with no integer in the range, a draw may test each d < 1/(hi - lo), ~4 us each
        scan = _scan_width(lo, hi, self.denominator_bound) - 1
        if math.floor(hi) < lo and scan >= 10**5:
            raise ValueError(
                f"coefficient_range [{format_rational(lo)}, {format_rational(hi)}] holds no "
                f"integer, and a draw in it would test up to {scan} denominators (limit 99999)"
            )

    def to_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "coefficient_range": [format_rational(v) for v in self.coefficient_range],
            "denominator_bound": self.denominator_bound,
            "seed": self.seed,
            "strata": list(self.strata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzConfig":
        """Build from a JSON object shaped like ``to_dict``'s output;
        ValueError for an unknown key or a wrongly typed value."""
        if not isinstance(data, dict):
            raise ValueError(f"a fuzz config must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown fuzz config keys: {', '.join(unknown)}")
        kwargs = dict(data)
        bounds = kwargs.get("coefficient_range")
        if isinstance(bounds, (list, tuple)):
            # via str, so that a JSON float 0.1 reads as 1/10
            kwargs["coefficient_range"] = tuple(Fraction(str(v)) for v in bounds)
        return cls(**kwargs)


@dataclass
class DiscrepancyReport:
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        return "".join(map(record_line, self.records))


def record_line(record: dict) -> str:
    """One record as a line of the JSON Lines report."""
    return json.dumps(record, sort_keys=True) + "\n"


def _random_rational(rng: random.Random, lo: Fraction, hi: Fraction, den_bound: int) -> Fraction:
    """Bounded-denominator rational, magnitude log-uniform up to the range:
    capped at 10**e, e drawn from 0..max(3, least e with 10**e >= range).
    Integer arithmetic on the numerators and denominators of ``lo`` and
    ``hi`` throughout; only the returned value is a Fraction."""
    lo_p, lo_q = lo.numerator, lo.denominator
    hi_p, hi_q = hi.numerator, hi.denominator
    # the range's magnitude p/q = max(|lo|, |hi|)
    if abs(lo_p) * hi_q > abs(hi_p) * lo_q:
        p, q = abs(lo_p), lo_q
    else:
        p, q = abs(hi_p), hi_q
    # 3010/10000 < log10(2), so e_max starts at or below the least e with
    # 10**e * q >= p, and a step or two up reaches it
    e_max = max(3, (p.bit_length() - q.bit_length() - 1) * 3010 // 10000)
    power = 10**e_max
    while power * q < p:
        power *= 10
        e_max += 1
    den = rng.randint(1, den_bound)
    cap = 10 ** rng.randint(0, e_max) * den  # the cap 10**e, in units of 1/den
    lo_all = -(-lo_p * den // lo_q)  # ceil(lo * den)
    hi_all = hi_p * den // hi_q  # floor(hi * den)
    lo_num, hi_num = max(lo_all, -cap), min(hi_all, cap)
    if lo_num > hi_num:
        lo_num, hi_num = lo_all, hi_all
    if lo_num > hi_num:
        den = _fitting_denominator(rng, lo, hi, den_bound)
        lo_num, hi_num = -(-lo_p * den // lo_q), hi_p * den // hi_q
    return Fraction(rng.randint(lo_num, hi_num), den)


def _scan_width(lo: Fraction, hi: Fraction, den_bound: int) -> int:
    """The least d that needs no test for a multiple of 1/d in [lo, hi]:
    every d >= 1/(hi - lo) has one, and no d > den_bound is drawn."""
    return min(math.ceil(1 / (hi - lo)), den_bound + 1)


@lru_cache(maxsize=4)
def _fitting_below(lo: Fraction, hi: Fraction, den_bound: int) -> tuple[int, ...]:
    """The d below ``_scan_width`` with a multiple of 1/d in [lo, hi]."""
    wide = _scan_width(lo, hi, den_bound)
    return tuple(d for d in range(1, wide) if math.ceil(lo * d) <= math.floor(hi * d))


def _fitting_denominator(rng: random.Random, lo: Fraction, hi: Fraction, den_bound: int) -> int:
    """A uniform draw among the d <= den_bound with a multiple of 1/d in
    [lo, hi]; the d that need a test are tested once per range and bound."""
    wide = _scan_width(lo, hi, den_bound)
    fits = _fitting_below(lo, hi, den_bound)
    count = len(fits) + den_bound + 1 - wide
    if count == 0:
        raise ValueError(f"no rational with denominator <= {den_bound} lies in [{lo}, {hi}]")
    index = rng.randrange(count)
    return fits[index] if index < len(fits) else wide + index - len(fits)


def published_f5(k, l, m, n):
    """f5 as the paper prints it, in any ring: the ``f5_zero_near`` ranking
    key and the tests' reference for ``decider.eval_polys``' f5."""
    return (
        -4 * k**3 * m**2 - 4 * k**3 * n**2 - 4 * k**2 * l * m**2 + 4 * k**2 * l * m * n
        - 4 * k**2 * l * n**2
        - k * l**2 * m**2 + 4 * k * l**2 * m * n - k * l**2 * n**2 + 8 * k * l * m**3
        + 6 * k * l * m**2 * n + 6 * k * l * m * n**2
        + 8 * k * l * n**3 - 2 * k * m**4 + 10 * k * m**3 * n - 3 * k * m**2 * n**2
        + 10 * k * m * n**3 - 2 * k * n**4
        + l**3 * m * n - 9 * l**2 * m**2 * n - 9 * l**2 * m * n**2 + l * m**4
        + 13 * l * m**3 * n - 3 * l * m**2 * n**2
        + 13 * l * m * n**3 + l * n**4 - 7 * m**5 - 8 * m**4 * n - 16 * m**3 * n**2
        - 16 * m**2 * n**3 - 8 * m * n**4
        - 7 * n**5 + 16 * k**4 + 16 * k**3 * l - 32 * k**2 * l * m - 32 * k**2 * l * n
        + 12 * k**2 * m**2
        - 48 * k**2 * m * n + 12 * k**2 * n**2 - 4 * k * l**3 + 4 * k * l**2 * m
        + 4 * k * l**2 * n - 12 * k * l * m**2
        - 60 * k * l * m * n - 12 * k * l * n**2 + 40 * k * m**3 + 48 * k * m**2 * n
        + 48 * k * m * n**2 + 40 * k * n**3
        - l**4 + 10 * l**3 * m + 10 * l**3 * n - 21 * l**2 * m**2 + 12 * l**2 * m * n
        - 21 * l**2 * n**2
        + 10 * l * m**3 + 48 * l * m**2 * n + 48 * l * m * n**2 + 10 * l * n**3
        - 17 * m**4 - 14 * m**3 * n
        - 21 * m**2 * n**2 - 14 * m * n**3 - 17 * n**4 - 16 * k**3 + 32 * k**2 * l
        - 48 * k**2 * m
        - 48 * k**2 * n + 80 * k * l**2 - 48 * k * l * m - 48 * k * l * n + 96 * k * m**2
        + 48 * k * m * n + 96 * k * n**2
        - 24 * l**3 - 24 * l**2 * m - 24 * l**2 * n + 24 * l * m**2 - 24 * l * m * n
        + 24 * l * n**2 - 16 * m**3
        - 48 * m**2 * n - 48 * m * n**2 - 16 * n**3 - 96 * k**2 - 64 * k * l + 64 * k * m
        + 64 * k * n + 96 * l**2
        - 32 * l * m - 32 * l * n - 16 * m**2 - 32 * m * n - 16 * n**2 + 64 * k
        - 128 * l + 64 * m + 64 * n + 128
    )


def stratum_sampler(
    stratum: str,
    rng: random.Random,
    coefficient_range: tuple[Fraction, Fraction] = FuzzConfig.coefficient_range,
    denominator_bound: int = FuzzConfig.denominator_bound,
) -> CyclicParams:
    """Draw one parameter point lying exactly on the requested stratum."""
    lo, hi = coefficient_range

    def draw() -> Fraction:
        return _random_rational(rng, lo, hi, denominator_bound)

    if stratum == "generic":
        return CyclicParams(draw(), draw(), draw(), draw())
    if stratum == "R_zero":
        k, m = draw(), draw()
        return CyclicParams(k, (4 * k + 2 * m - 8) / 2, m, m)
    if stratum == "f3_zero":
        k, l, m = draw(), draw(), draw()
        return CyclicParams(k, l, m, -1 - k - l - m)
    if stratum == "f1_zero":
        k, l, m = draw(), draw(), draw()
        return CyclicParams(k, l, m, 2 + k - m)
    if stratum == "f5_zero_near":
        batch = [CyclicParams(draw(), draw(), draw(), draw()) for _ in range(32)]
        # ranked by the published f5 in Fraction arithmetic: 32 evaluations of
        # 60 monomials, about 40 ms a draw, which sets the fuzz's p90 latency.
        # f5 read off the integers (``eval_polys``) has the same values and
        # would pick the same draw some 30 times faster.  The ranking stays
        # until an exact D4 = 0 stratum replaces it, so that the fuzz
        # workload's cost changes once, together with its inputs.
        return min(
            batch, key=lambda c: (abs(published_f5(c.k, c.l, c.m, c.n)), c.k, c.l, c.m, c.n)
        )
    if stratum == "case1_boundary":
        m = draw()
        gap = abs(draw()) + Fraction(1, denominator_bound)
        k = (m * m + 8) / 4 - gap  # makes g2 = -4*gap < 0 exactly
        return CyclicParams(k, (4 * k + 2 * m - 8) / 2, m, m)
    raise ValueError(f"unknown stratum {stratum!r}")


def _classify_disagreement(polys: ClausePolynomials, verdicts: dict[str, Verdict]) -> str:
    # the theorem fires case1/g1>0/g3>=0 exactly when g4 = f2 = 0, g1 > 0,
    # g2 < 0 and g3 >= 0, and corrected then refuses exactly when k + m < 1
    if (
        verdicts["closed_theorem"].fired_clause == "case1/g1>0/g3>=0"
        and not verdicts["closed_corrected"].is_psd
    ):
        return "erratum-region"
    if (
        polys.f5 == 0
        or polys.f6 == 0
        or polys.f7 == 0
        or polys.f3 == 0
        or polys.f1 == 0
        or polys.g4 == polys.f2 == 0  # R = 27*g4**2 + f2**2 = 0
    ):
        return "boundary"
    return "unexplained"


def params_dict(c: CyclicParams) -> dict:
    """k, l, m and n as exact rational strings."""
    return {name: format_rational(getattr(c, name)) for name in "klmn"}


def verdict_table(c: CyclicParams) -> tuple[ClausePolynomials, dict[str, Verdict], dict]:
    """The clause polynomials of ``c``, its five verdicts keyed structural,
    oracle and closed_<variant>, and the ``params``, ``R``, ``polys`` and
    ``verdicts`` blocks that a fuzz record and ``cycquart explain`` print."""
    polys = eval_polys(c)
    verdicts = {
        "structural": decide_structural(c),
        "oracle": decide_oracle(c),
        **{
            f"closed_{variant}": closed_form_verdict(c, polys, variant)
            for variant in CLOSED_FORM_VARIANTS
        },
    }
    blocks = {
        "params": params_dict(c),
        "R": format_rational(radicand(c)),
        "polys": {name: format_rational(getattr(polys, name)) for name in CLAUSE_POLYNOMIAL_NAMES},
        "verdicts": {
            name: {"is_psd": v.is_psd, "fired_clause": v.fired_clause}
            for name, v in verdicts.items()
        },
    }
    return polys, verdicts, blocks


def _discriminant_identities(c: CyclicParams, polys: ClausePolynomials) -> tuple[bool, bool, bool]:
    """Whether D2 = 108*f1**2*f6, D3 = 324*f1**2*f7 and D4 =
    104976*f1**2*f3*f5 hold between the discriminants of g and the clause
    values ``polys``, in integers, for f1 != 0.  The discriminants of d*g
    (``reduced_coefficients``) are d**4, d**6 and d**8 times g's, and each
    clause value n/q is cross-multiplied by its denominator."""
    d, a0, s, a2, a4, _ = reduced_coefficients(c)
    _, d2, d3, d4 = discriminants_of(a0, s, a2, a4)
    f1, f3, f5, f6, f7 = polys.f1, polys.f3, polys.f5, polys.f6, polys.f7
    n1_sq, q1_sq = f1.numerator ** 2, f1.denominator ** 2
    dd = d * d
    d4th = dd * dd
    return (
        d2 * q1_sq * f6.denominator == 108 * n1_sq * f6.numerator * d4th,
        d3 * q1_sq * f7.denominator == 324 * n1_sq * f7.numerator * d4th * dd,
        d4 * q1_sq * f3.denominator * f5.denominator
        == 104976 * n1_sq * f3.numerator * f5.numerator * d4th * d4th,
    )


def fuzz_compare(cfg: FuzzConfig, record_sink=None) -> DiscrepancyReport:
    """Run the differential comparison; deterministic given the config.

    A structural-vs-oracle disagreement, or an exact negative point found
    on a structurally-PSD sample, raises AssertionError: both can only be
    implementation bugs.  Everything else is reported as data.

    ``record_sink``, when given, receives each record dict as soon as it is
    produced, so a crashed or aborted run still leaves salvageable JSONL
    output behind.
    """
    started = time.monotonic()
    records: list[dict] = []
    # no record holds these two; the rest of the summary is counted from
    # the records once the last one is produced
    identity_checked = 0
    identity_holds = {"d2": 0, "d3": 0, "d4": 0}

    for index in range(cfg.sample_count):
        stratum = cfg.strata[index % len(cfg.strata)]
        rng = random.Random(cfg.seed ^ index)
        c = stratum_sampler(stratum, rng, cfg.coefficient_range, cfg.denominator_bound)

        polys, verdicts, blocks = verdict_table(c)
        structural, oracle = verdicts["structural"], verdicts["oracle"]
        if structural.is_psd != oracle.is_psd:
            raise AssertionError(
                f"structural/oracle disagreement at {c}: "
                f"{structural.is_psd} vs {oracle.is_psd}"
            )

        witness = None
        falsifier_checked = 0
        if structural.is_psd:
            attack, falsifier_checked = kernels.find_negative_on_faces(
                c, _FALSIFIER_FACES, _FALSIFIER_POINTS
            )
            if attack is not None:
                raise AssertionError(
                    f"falsifier refuted a PSD verdict at {c}: point {attack}"
                )
        else:
            witness = find_witness(c)

        if polys.f1 != 0:
            # D2 = 108*f1^2*f6, D3 = 324*f1^2*f7 and D4 = 104976*f1^2*f3*f5,
            # compared on the integers of d*g.  f5, f6 and f7 are read off
            # the cofactors of D4, D2 and D3, so these comparisons cannot
            # fail; they stay only because perfbench/run.py's check_fuzz
            # reads the counts.  The sympy proof against the published
            # polynomials is the check of the formulas
            identity_checked += 1
            for name, holds in zip(("d2", "d3", "d4"), _discriminant_identities(c, polys)):
                identity_holds[name] += holds

        record = {
            "index": index,
            "stratum": stratum,
            **blocks,
            "witness": [format_rational(v) for v in witness] if witness else None,
            "witness_value": format_rational(eval_form(c, *witness)) if witness else None,
            "witness_budget_exhausted": not structural.is_psd and witness is None,
            "falsifier_checked": falsifier_checked,
            "closed_form_disagreements": {
                variant: "agree"
                if verdicts[f"closed_{variant}"].is_psd == structural.is_psd
                else _classify_disagreement(polys, verdicts)
                for variant in CLOSED_FORM_VARIANTS
            },
        }
        records.append(record)
        if record_sink is not None:
            record_sink(record)

    psd_count = sum(rec["verdicts"]["structural"]["is_psd"] for rec in records)
    closed_tally = {
        variant: {
            kind: sum(rec["closed_form_disagreements"][variant] == kind for rec in records)
            for kind in ("agree", "erratum-region", "boundary", "unexplained")
        }
        for variant in CLOSED_FORM_VARIANTS
    }
    summary = {
        "config": cfg.to_dict(),
        "samples": cfg.sample_count,
        "strata_counts": {s: sum(rec["stratum"] == s for rec in records) for s in cfg.strata},
        # always 0: either event raises AssertionError above, before any
        # summary exists; perfbench/run.py's check_fuzz reads both keys
        "structural_oracle_disagreements": 0,
        "falsifier_hits_on_psd": 0,
        "psd_count": psd_count,
        "notpsd_count": cfg.sample_count - psd_count,
        "witness_failures": sum(rec["witness_budget_exhausted"] for rec in records),
        # an erratum-region sample is NotPSD (R=0/biquadratic/c<0) but PSD by
        # the theorem (case1/g1>0/g3>=0), and no other sample is classed so
        "erratum_hits": closed_tally["theorem"]["erratum-region"],
        "closed_form": closed_tally,
        "theorem_proof_disagreements": sum(
            rec["verdicts"]["closed_theorem"]["is_psd"] != rec["verdicts"]["closed_proof"]["is_psd"]
            for rec in records
        ),
        "discriminant_identities": {
            "checked": identity_checked,
            "holds": identity_holds,
        },
        # format_rational writes "0" for zero only
        "boundary_tallies": {
            f"{name}_zero": sum(rec["polys"][name] == "0" for rec in records)
            for name in ("f5", "f6", "f7")
        },
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    return DiscrepancyReport(records=records, summary=summary)
