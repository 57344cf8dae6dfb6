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

from . import kernels
from .decider import (
    CLAUSE_POLYNOMIAL_NAMES,
    CLOSED_FORM_VARIANTS,
    ClausePolynomials,
    Verdict,
    closed_form_verdict,
    decide_oracle,
    decide_structural,
    eval_f5,
    eval_polys,
    find_witness,
)
from .form import CyclicParams, eval_form, radicand, reduce_to_g
from .quartic_rules import discriminants
from .scalars import format_rational

__all__ = [
    "STRATA",
    "FuzzConfig",
    "DiscrepancyReport",
    "stratum_sampler",
    "params_dict",
    "verdict_table",
    "fuzz_compare",
]

STRATA = ("generic", "R_zero", "f3_zero", "f1_zero", "f5_zero_near", "case1_boundary")

# The PSD falsifier sweeps these faces whole.  Each face skips the points
# of its half, so together they check the (2*32 + 1)**2 = 4225 points of
# the face-32 grid, and a budget of that many never cuts the sweep short.
_FALSIFIER_FACES = (1, 2, 4, 8, 16, 32)
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
            lo, hi = (Fraction(v) for v in bounds)
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

    def to_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "coefficient_range": [str(v) for v in self.coefficient_range],
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
        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.records)


def _random_rational(rng: random.Random, lo: Fraction, hi: Fraction, den_bound: int) -> Fraction:
    """Bounded-denominator rational, magnitude log-uniform up to the range:
    capped at 10**e, e drawn from 0..max(3, least e with 10**e >= range)."""
    e_max = 3
    while 10**e_max < max(abs(lo), abs(hi)):
        e_max += 1
    den = rng.randint(1, den_bound)
    scale = Fraction(10 ** rng.randint(0, e_max))
    lo_eff = max(lo, -scale)
    hi_eff = min(hi, scale)
    lo_num = math.ceil(lo_eff * den)
    hi_num = math.floor(hi_eff * den)
    if lo_num > hi_num:
        lo_num, hi_num = math.ceil(lo * den), math.floor(hi * den)
    if lo_num > hi_num:
        den = _fitting_denominator(rng, lo, hi, den_bound)
        lo_num, hi_num = math.ceil(lo * den), math.floor(hi * den)
    return Fraction(rng.randint(lo_num, hi_num), den)


def _fitting_denominator(rng: random.Random, lo: Fraction, hi: Fraction, den_bound: int) -> int:
    """A uniform draw among the d <= den_bound with a multiple of 1/d in
    [lo, hi].  Every d >= 1/(hi - lo) has one, so only smaller d are tested."""
    wide = min(math.ceil(1 / (hi - lo)), den_bound + 1)
    fits = [d for d in range(1, wide) if math.ceil(lo * d) <= math.floor(hi * d)]
    count = len(fits) + den_bound + 1 - wide
    if count == 0:
        raise ValueError(f"no rational with denominator <= {den_bound} lies in [{lo}, {hi}]")
    index = rng.randrange(count)
    return fits[index] if index < len(fits) else wide + index - len(fits)


def stratum_sampler(
    stratum: str,
    rng: random.Random,
    coefficient_range: tuple[Fraction, Fraction] = (Fraction(-1000), Fraction(1000)),
    denominator_bound: int = 64,
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
        return min(batch, key=lambda c: (abs(eval_f5(c)), c.k, c.l, c.m, c.n))
    if stratum == "case1_boundary":
        m = draw()
        gap = abs(draw()) + Fraction(1, denominator_bound)
        k = (m * m + 8) / 4 - gap  # makes g2 = -4*gap < 0 exactly
        return CyclicParams(k, (4 * k + 2 * m - 8) / 2, m, m)
    raise ValueError(f"unknown stratum {stratum!r}")


def _in_erratum_region(c: CyclicParams, polys) -> bool:
    return (
        polys.g4 == 0
        and polys.f2 == 0
        and polys.g1 > 0
        and polys.g3 >= 0
        and polys.g2 < 0
        and c.k + c.m - 1 < 0
    )


def _classify_disagreement(c: CyclicParams, polys, rad: Fraction) -> str:
    if _in_erratum_region(c, polys):
        return "erratum-region"
    if (
        polys.f5 == 0
        or polys.f6 == 0
        or polys.f7 == 0
        or polys.f3 == 0
        or polys.f1 == 0
        or rad == 0
    ):
        return "boundary"
    return "unexplained"


def params_dict(c: CyclicParams) -> dict:
    """k, l, m and n as exact rational strings."""
    return {name: format_rational(getattr(c, name)) for name in "klmn"}


def verdict_table(c: CyclicParams) -> tuple[ClausePolynomials, dict[str, Verdict], dict]:
    """The clause polynomials of ``c``, its five verdicts keyed structural,
    oracle and closed_<variant>, and the ``params``, ``polys`` and
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
        "polys": {name: format_rational(getattr(polys, name)) for name in CLAUSE_POLYNOMIAL_NAMES},
        "verdicts": {
            name: {"is_psd": v.is_psd, "fired_clause": v.fired_clause}
            for name, v in verdicts.items()
        },
    }
    return polys, verdicts, blocks


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
    strata_counts = {s: 0 for s in cfg.strata}
    closed_tally = {
        variant: {"agree": 0, "erratum-region": 0, "boundary": 0, "unexplained": 0}
        for variant in CLOSED_FORM_VARIANTS
    }
    identity_checked = 0
    identity_holds = {"d2": 0, "d3": 0, "d4": 0}
    boundary_tally = {"f5_zero": 0, "f6_zero": 0, "f7_zero": 0}
    theorem_proof_disagreements = 0
    psd_count = 0
    witness_failures = 0
    erratum_hits = 0

    for index in range(cfg.sample_count):
        stratum = cfg.strata[index % len(cfg.strata)]
        rng = random.Random(cfg.seed ^ index)
        c = stratum_sampler(stratum, rng, cfg.coefficient_range, cfg.denominator_bound)
        strata_counts[stratum] += 1

        polys, verdicts, blocks = verdict_table(c)
        rad = radicand(c)
        structural, oracle = verdicts["structural"], verdicts["oracle"]
        if structural.is_psd != oracle.is_psd:
            raise AssertionError(
                f"structural/oracle disagreement at {c}: "
                f"{structural.is_psd} vs {oracle.is_psd}"
            )

        witness = None
        witness_value = None
        witness_exhausted = False
        falsifier_checked = 0
        if structural.is_psd:
            psd_count += 1
            attack, falsifier_checked = kernels.find_negative_on_faces(
                c, _FALSIFIER_FACES, _FALSIFIER_POINTS
            )
            if attack is not None:
                raise AssertionError(
                    f"falsifier refuted a PSD verdict at {c}: point {attack}"
                )
        else:
            witness = find_witness(c)
            if witness is None:
                witness_exhausted = True
                witness_failures += 1
            else:
                witness_value = eval_form(c, *witness)

        disagreements = {}
        for variant in CLOSED_FORM_VARIANTS:
            if verdicts[f"closed_{variant}"].is_psd == structural.is_psd:
                disagreements[variant] = "agree"
                closed_tally[variant]["agree"] += 1
            else:
                kind = _classify_disagreement(c, polys, rad)
                disagreements[variant] = kind
                closed_tally[variant][kind] += 1

        if verdicts["closed_theorem"].is_psd != verdicts["closed_proof"].is_psd:
            theorem_proof_disagreements += 1
        if _in_erratum_region(c, polys):
            erratum_hits += 1
        if polys.f5 == 0:
            boundary_tally["f5_zero"] += 1
        if polys.f6 == 0:
            boundary_tally["f6_zero"] += 1
        if polys.f7 == 0:
            boundary_tally["f7_zero"] += 1

        if polys.f1 != 0:
            # exact proportionality between the clause polynomials and the
            # discriminants of g: D2 = 108*f1^2*f6, D3 = 324*f1^2*f7,
            # D4 = 104976*f1^2*f3*f5
            _, d2, d3, d4 = discriminants(reduce_to_g(c))
            identity_checked += 1
            if d2 == 108 * polys.f1 ** 2 * polys.f6:
                identity_holds["d2"] += 1
            if d3 == 324 * polys.f1 ** 2 * polys.f7:
                identity_holds["d3"] += 1
            if d4 == 104976 * polys.f1 ** 2 * polys.f3 * polys.f5:
                identity_holds["d4"] += 1

        record = {
            "index": index,
            "stratum": stratum,
            **blocks,
            "R": format_rational(rad),
            "witness": [format_rational(v) for v in witness] if witness else None,
            "witness_value": format_rational(witness_value)
            if witness_value is not None
            else None,
            "witness_budget_exhausted": witness_exhausted,
            "falsifier_checked": falsifier_checked,
            "closed_form_disagreements": disagreements,
        }
        records.append(record)
        if record_sink is not None:
            record_sink(record)

    summary = {
        "config": cfg.to_dict(),
        "samples": cfg.sample_count,
        "strata_counts": strata_counts,
        "structural_oracle_disagreements": 0,
        "falsifier_hits_on_psd": 0,
        "psd_count": psd_count,
        "notpsd_count": cfg.sample_count - psd_count,
        "witness_failures": witness_failures,
        "erratum_hits": erratum_hits,
        "closed_form": closed_tally,
        "theorem_proof_disagreements": theorem_proof_disagreements,
        "discriminant_identities": {
            "checked": identity_checked,
            "holds": identity_holds,
        },
        "boundary_tallies": boundary_tally,
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    return DiscrepancyReport(records=records, summary=summary)
