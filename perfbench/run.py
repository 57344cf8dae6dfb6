#!/usr/bin/env python3
"""End-to-end benchmark of cycquart, with a traced per-layer mode.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz_strata --seed 1 --seconds 10 --trace 0

One client in a closed loop: each request is sent when the previous one
has completed, in this process, with no extra threads.  Workloads:

  fuzz_strata      one sample of harness.fuzz_compare, round-robin over
                   all six strata, in chunks of 60 samples
  decide_boundary  decide(c, "structural") and, on NotPSD, find_witness(c),
                   on eps-perturbations of Vasc's boundary forms
  oracle_sos       decide(c, "oracle") on cyclic sums of squares (all PSD)

``--trace 0`` runs requests for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of requests twice, untraced
and then traced, and reports the per-layer metrics and the tracing
overhead.  Every answer is checked; a wrong one makes the run exit 1.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import gen  # noqa: E402  (input generation never imports cycquart)
from tracing import Tracer  # noqa: E402

FUZZ_CHUNK = 60  # samples per fuzz_compare call: ten of each stratum
FINGERPRINT_CHUNKS = 2  # records of the first chunks are fingerprinted
SETUP_LAUNCHES = 9
SETUP_UNITS_PER_LAUNCH = 5
SETUP_COMMAND = ("-m", "cycquart.cli", "decide", "2", "0", "-3", "0")
# requests in each pass of a traced run, per second of --seconds; each
# untraced pass then takes roughly a quarter of --seconds
TRACE_REQUESTS_PER_S = {"fuzz_strata": 12, "decide_boundary": 36, "oracle_sos": 30}


# The machine's speed drifts by tens of percent over minutes when other
# jobs share its cores.  A fixed piece of pure-Python Fraction arithmetic
# (the calibration unit) runs between requests, outside their timing, and
# end-to-end times are rescaled to a machine on which it takes 1 ms.
CALIBRATION_EVERY_S = 0.05
REFERENCE_UNIT_S = 0.001
_CALIBRATION_POLY = [Fraction(i * i - 7, 2 * i + 3) for i in range(9)]


def calibration_unit() -> Fraction:
    """Horner evaluation of a fixed rational polynomial at 24 points."""
    total = Fraction(0)
    for j in range(1, 25):
        x = Fraction(j, 37)
        value = Fraction(0)
        for coeff in _CALIBRATION_POLY:
            value = value * x + coeff
        total += value
    return total


@dataclass
class Run:
    """Raw results of one timed pass over a workload."""

    latencies: list = field(default_factory=list)  # seconds, one per request
    elapsed: float = 0.0  # seconds spent serving requests
    results: list = field(default_factory=list)  # (input, answer or exception)
    calibration: list = field(default_factory=list)  # (requests done, unit seconds)
    _calibrate_at: float = 0.0

    def served(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.elapsed += seconds

    def calibrate_if_due(self) -> None:
        if time.perf_counter() >= self._calibrate_at:
            started = time.perf_counter()
            calibration_unit()
            self.calibration.append((len(self.latencies), time.perf_counter() - started))
            self._calibrate_at = time.perf_counter() + CALIBRATION_EVERY_S

    def rescaled(self, window: int) -> list:
        """Latencies rescaled to the reference machine, window by window, by
        the median calibration unit measured while the window was served."""
        overall = [unit for _, unit in self.calibration]
        out = []
        for start in range(0, len(self.latencies), window):
            units = [u for done, u in self.calibration if start <= done < start + window]
            factor = REFERENCE_UNIT_S / statistics.median(units or overall)
            out += [x * factor for x in self.latencies[start : start + window]]
        return out


@dataclass
class Checked:
    """What the correctness check found in a Run."""

    failures: list = field(default_factory=list)  # one line per wrong request
    notpsd: int = 0
    misses: list = field(default_factory=list)  # (k, l, m, n) with no witness
    notes: list = field(default_factory=list)


# -- workloads ----------------------------------------------------------------


def closed_loop(inputs, serve, stop) -> Run:
    run = Run()
    for item in inputs:
        run.calibrate_if_due()
        started = time.perf_counter()
        try:
            answer = serve(item)
        except Exception as exc:  # a crash is a failed request, checked below
            answer = exc
        run.served(time.perf_counter() - started)
        run.results.append((item, answer))
        if stop(len(run.results), run.elapsed):
            break
    return run


def run_fuzz(seed: int, stop) -> Run:
    """Whole fuzz_compare chunks until ``stop``; latency is the gap between
    successive records (from the call for the first one)."""
    from cycquart import harness

    run = Run()
    while len(run.results) < FINGERPRINT_CHUNKS or not stop(len(run.latencies), run.elapsed):
        # chunk seeds differ above bit 8, so seed ^ index never repeats
        chunk_seed = (seed << 20) + (len(run.results) << 8)
        cfg = harness.FuzzConfig(sample_count=FUZZ_CHUNK, seed=chunk_seed, strata=harness.STRATA)
        run.calibrate_if_due()
        last = time.perf_counter()

        def sink(_record):
            nonlocal last
            run.served(time.perf_counter() - last)
            run.calibrate_if_due()
            last = time.perf_counter()

        try:
            report = harness.fuzz_compare(cfg, record_sink=sink)
            # keep only the JSONL text, so the heap (and the cost of garbage
            # collection) does not grow with the number of chunks run
            answer = (report.to_jsonl(), report.summary)
        except Exception as exc:  # the sample in progress failed
            run.served(time.perf_counter() - last)
            answer = exc
        run.results.append((chunk_seed, answer))
    return run


def check_fuzz(run: Run) -> Checked:
    out = Checked()
    for chunk_seed, answer in run.results:
        if isinstance(answer, Exception):
            out.failures.append(f"fuzz chunk seed {chunk_seed}: {type(answer).__name__}: {answer}")
            continue
        jsonl, summary = answer
        identities = summary["discriminant_identities"]
        broken = [
            f"{key} = {summary[key]}"
            for key in ("structural_oracle_disagreements", "falsifier_hits_on_psd")
            if summary[key] != 0
        ] + [
            f"identity {name} holds on {holds} of {identities['checked']} samples"
            for name, holds in identities["holds"].items()
            if holds != identities["checked"]
        ]
        if broken:
            out.failures.append(f"fuzz chunk seed {chunk_seed}: " + "; ".join(broken))
        for line in jsonl.splitlines():
            record = json.loads(line)
            params = tuple(Fraction(record["params"][v]) for v in "klmn")
            verdicts = record["verdicts"]
            is_psd = verdicts["structural"]["is_psd"]
            if verdicts["oracle"]["is_psd"] != is_psd:
                out.failures.append(f"structural/oracle disagree at {_fmt(params)}")
                continue
            if is_psd:
                continue
            out.notpsd += 1
            if record["witness"] is None:
                out.misses.append(params)
            elif gen.form_value(params, *map(Fraction, record["witness"])) >= 0:
                out.failures.append(f"invalid witness {record['witness']} at {_fmt(params)}")
    chunks = [answer for _, answer in run.results[:FINGERPRINT_CHUNKS]]
    if not any(isinstance(answer, Exception) for answer in chunks):
        digest = hashlib.sha256("".join(jsonl for jsonl, _ in chunks).encode()).hexdigest()
        out.notes.append(f"records_sha256 {digest} (first {FUZZ_CHUNK * len(chunks)} samples)")
    return out


def run_boundary(seed: int, stop) -> Run:
    from cycquart import decider
    from cycquart.form import CyclicParams

    def serve(item):
        c = CyclicParams(*item[0])
        verdict = decider.decide(c, "structural")
        return verdict, None if verdict.is_psd else decider.find_witness(c)

    return closed_loop(gen.boundary_inputs(seed), serve, stop)


def check_boundary(run: Run) -> Checked:
    from cycquart import decider
    from cycquart.form import CyclicParams

    out = Checked()
    for (params, _designed_f3), answer in run.results:
        if isinstance(answer, Exception):
            out.failures.append(f"{_fmt(params)}: {type(answer).__name__}: {answer}")
            continue
        verdict, witness = answer
        if decider.decide_oracle(CyclicParams(*params)).is_psd != verdict.is_psd:
            out.failures.append(f"structural verdict disagrees with the oracle at {_fmt(params)}")
            continue
        if verdict.is_psd:
            continue
        out.notpsd += 1
        if witness is None:
            out.misses.append(params)
        elif gen.form_value(params, *witness) >= 0:
            out.failures.append(f"invalid witness {witness} at {_fmt(params)}")
    return out


def run_sos(seed: int, stop) -> Run:
    from cycquart import decider
    from cycquart.form import CyclicParams

    return closed_loop(
        gen.sos_inputs(seed), lambda item: decider.decide(CyclicParams(*item[0]), "oracle"), stop
    )


def check_sos(run: Run) -> Checked:
    out = Checked()
    for (params, _quadratic), answer in run.results:
        if isinstance(answer, Exception):
            out.failures.append(f"{_fmt(params)}: {type(answer).__name__}: {answer}")
        elif not answer.is_psd:
            out.failures.append(f"sum of squares decided NotPSD at {_fmt(params)}")
    return out


# name -> (runner, checker, requests per throughput window); a boundary
# window is one pass over all 36 (base, eps, f3 mode) cells, in +- pairs
WORKLOADS = {
    "fuzz_strata": (run_fuzz, check_fuzz, FUZZ_CHUNK),
    "decide_boundary": (run_boundary, check_boundary, 72),
    "oracle_sos": (run_sos, check_sos, 36),
}


# -- measurement ----------------------------------------------------------------


def measure_setup() -> float:
    """Median wall time of a fresh ``cycquart decide`` process, rescaled to
    the reference machine like every other end-to-end time.

    Bytecode caching is on, as for an installed package; one launch before
    the timed ones writes the cache.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times, units = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *SETUP_COMMAND], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - started
        if proc.returncode != 0 or json.loads(proc.stdout).get("is_psd") is not True:
            raise SystemExit(
                f"error: `cycquart decide 2 0 -3 0` must answer PSD with exit 0, got "
                f"exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}"
            )
        if launch:
            times.append(elapsed)
        for _ in range(SETUP_UNITS_PER_LAUNCH):
            started = time.perf_counter()
            calibration_unit()
            units.append(time.perf_counter() - started)
    return statistics.median(times) * REFERENCE_UNIT_S / statistics.median(units)


def throughput_and_deciles(latencies: list, window: int) -> tuple:
    """Median over whole windows of requests per second, and the latency
    deciles in seconds."""
    rates = [
        window / sum(latencies[i : i + window])
        for i in range(0, len(latencies) - window + 1, window)
    ] or [len(latencies) / sum(latencies)]
    return statistics.median(rates), statistics.quantiles(latencies, n=10, method="inclusive")


def end_to_end(run: Run, checked: Checked, setup_s: float, window: int) -> dict:
    """End-to-end metrics of an untraced run, with times rescaled to the
    reference machine."""
    throughput, deciles = throughput_and_deciles(run.rescaled(window), window)
    attempted = len(run.latencies)
    missed = len(checked.misses)
    return {
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "success_ratio": ((attempted - len(checked.failures)) / attempted, "ratio"),
        "witness_found_ratio": (
            (checked.notpsd - missed) / checked.notpsd if checked.notpsd else 1.0, "ratio"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _fmt(params) -> str:
    return "(" + ", ".join(str(v) for v in params) + ")"


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run for ``seconds``: (runs, checks, metrics, report lines)."""
    runner, checker, window = WORKLOADS[workload]
    setup_s = measure_setup()
    run = runner(seed, lambda _done, elapsed: elapsed >= seconds)
    check = checker(run)
    n, notpsd = len(run.latencies), check.notpsd
    missed, failed = len(check.misses), len(check.failures)
    raw_throughput, raw_deciles = throughput_and_deciles(run.latencies, window)
    units = [unit for _, unit in run.calibration]
    lines = [
        f"requests {n} (latency_p90_ms has {n - int(0.9 * n)} samples beyond it)",
        f"calibration unit: median {statistics.median(units) * 1e3:.4f} ms over {len(units)} "
        f"units; unscaled throughput {raw_throughput:.4f} 1/s, p50 "
        f"{raw_deciles[4] * 1e3:.4f} ms, p90 {raw_deciles[8] * 1e3:.4f} ms",
        f"failed_ratio {failed / n:.6g} ({failed}/{n})",
        f"witness_miss_ratio {missed / notpsd if notpsd else 0:.6g} ({missed}/{notpsd} NotPSD)",
    ] + check.notes
    return [run], [check], end_to_end(run, check, setup_s, window), lines


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    """The same requests served untraced, then traced: (runs, checks,
    per-layer metrics, report lines)."""
    runner, checker, window = WORKLOADS[workload]
    count = max(1, round(TRACE_REQUESTS_PER_S[workload] * seconds))
    stop = lambda done, _elapsed: done >= count  # noqa: E731
    untraced = runner(seed, stop)
    tracer = Tracer()
    with tracer.installed():
        traced = runner(seed, stop)
    runs = [untraced, traced]
    checks = [checker(run) for run in runs]  # after tracing: checks are not traced
    metrics = tracer.metrics()
    # both passes rescaled to the reference machine, as in end_to_end
    untraced_s, traced_s = (sum(run.rescaled(window)) for run in runs)
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    lines = [
        f"requests per pass {len(traced.latencies)}: untraced {untraced.elapsed:.3f} s, "
        f"traced {traced.elapsed:.3f} s"
    ]
    lines += [f"note: layer {name} not found, reported as 0" for name in tracer.missing]
    for label, check in zip(("untraced", "traced"), checks):
        lines += [f"{label}: {note}" for note in check.notes]
    return runs, checks, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cycquart", "__init__.py")):
        print(f"error: no cycquart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cycquart  # noqa: F401  (imported before any timing)

    measure_fn = measure_traced if args.trace else measure
    runs, checks, metrics, lines = measure_fn(args.workload, args.seed, args.seconds)
    failures = [line for check in checks for line in check.failures]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"] + lines
    lines += [f"witness miss at (k, l, m, n) = {_fmt(p)}" for p in checks[-1].misses]
    lines += [f"FAILED: {line}" for line in failures]
    lines += [f"{name:44s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(run.latencies) for run in runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
