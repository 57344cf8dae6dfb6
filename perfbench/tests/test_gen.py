"""Tests of the benchmark's input generators and tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

import gen  # noqa: E402


def _f3(params):
    """F(1, 1, 1) / 3."""
    k, l, m, n = params
    return 1 + k + l + m + n


def _quadratic_value(q, x, y, z):
    a, b, c, d, e, f = q
    return a * x * x + b * y * y + c * z * z + d * x * y + e * y * z + f * z * x


def test_sos_expansion_matches_cyclic_sum_of_squares():
    rng = random.Random(0)
    for _ in range(50):
        q = gen.random_quadratic(rng)
        params = gen.sos_params(q)
        lead = q[0] ** 2 + q[1] ** 2 + q[2] ** 2
        for _ in range(5):
            x, y, z = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
            direct = sum(
                _quadratic_value(q, *point) ** 2 for point in ((x, y, z), (y, z, x), (z, x, y))
            )
            assert lead * gen.form_value(params, x, y, z) == direct


def test_vasc_bases_are_boundary_forms():
    for base in gen.VASC_BASES:
        assert _f3(base) == 0
        assert gen.form_value(base, 1, 1, 1) == 0


def test_every_vasc_perturbation_has_the_designed_f3():
    cells = len(gen.VASC_BASES) * len(gen.EPSILON_EXPONENTS) * len(gen.F3_MODES)
    inputs = gen.boundary_inputs(7)
    requests = [next(inputs) for _ in range(4 * cells)]
    for params, designed in requests:
        assert _f3(params) == designed
    designed_values = {designed for _, designed in requests}
    expected = {Fraction(0)} | {
        Fraction(1, 10**exponent) ** power
        for exponent in gen.EPSILON_EXPONENTS
        for power in (2, 3)
    }
    assert designed_values == expected
    # consecutive requests use one direction with both signs
    for (plus, f3_plus), (minus, f3_minus) in zip(requests[::2], requests[1::2]):
        assert f3_plus == f3_minus
        assert plus[0] + minus[0] == 4  # k = 2 +- eps*dk


def test_generators_are_deterministic_per_seed():
    def take(make, seed):
        items = make(seed)
        return [next(items) for _ in range(40)]

    assert take(gen.boundary_inputs, 3) == take(gen.boundary_inputs, 3)
    assert take(gen.boundary_inputs, 3) != take(gen.boundary_inputs, 4)
    assert take(gen.sos_inputs, 3) == take(gen.sos_inputs, 3)


def test_generation_never_imports_cycquart():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{BENCH!r}, {SRC!r}]\n"
        "import gen\n"
        "for make in (gen.boundary_inputs, gen.sos_inputs):\n"
        "    items = make(1)\n"
        "    for _ in range(100):\n"
        "        next(items)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'cycquart']\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


def test_form_value_agrees_with_the_program():
    from cycquart.form import CyclicParams, eval_form

    rng = random.Random(1)
    for _ in range(50):
        params = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4))
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        assert gen.form_value(params, *point) == eval_form(CyclicParams(*params), *point)


def test_tracer_counts_calls_and_restores_the_originals():
    from cycquart import decider
    from cycquart.form import CyclicParams
    from cycquart.scalars import QuadExt
    from cycquart.unipoly import UniPoly

    from tracing import Tracer

    originals = (decider.eval_polys, decider._METHODS["structural"], UniPoly.eval, QuadExt.__init__)
    tracer = Tracer()
    with tracer.installed():
        decider.decide(CyclicParams(0, 0, -3, 0), "structural")  # NotPSD: F(1,1,1) < 0
        decider.find_witness(CyclicParams(0, 0, -3, 0))
    assert originals == (
        decider.eval_polys, decider._METHODS["structural"], UniPoly.eval, QuadExt.__init__
    )
    metrics = tracer.metrics()
    assert metrics["decider.decide_structural.calls"][0] == 1
    assert metrics["decider.eval_polys.calls"][0] == 1
    assert metrics["decider.find_witness.calls"][0] == 1
    assert metrics["decider.find_witness.stage.probe"][0] == 1
    assert not tracer.missing
