"""cycquart: exact decision procedures for positive semidefinite cyclic
ternary quartic forms.

The package decides whether

    F(x, y, z) = sum_cyc x**4 + k*sum_cyc x**2*y**2 + l*sum_cyc x**2*y*z
                 + m*sum_cyc x**3*y + n*sum_cyc x*y**3

is nonnegative on all of R**3, by three independent exact paths (a closed
quantifier-free formula, a case analysis of the reduced univariate quartic
g(t) = a0*t**4 - sqrt(R)*t**3 + a2*t**2 + a4 in integer arithmetic, and a
Sturm-sequence oracle on g, whose one irrational coefficient sqrt(R) lives
in Q(sqrt(R))), and cross-validates them with a differential-testing
harness that produces rational counterexample witnesses.  g is computed
once per form, in ``form``, and every decider, the witness search, the
harness and the CLI read it there.
"""

from .form import (
    BcdeParams,
    CyclicParams,
    eval_form,
    from_bcde,
    r_range,
    radicand,
    reduce_to_g,
)
from .decider import (
    ClausePolynomials,
    Verdict,
    decide,
    decide_closed_form,
    decide_oracle,
    decide_structural,
    eval_polys,
    find_witness,
)
from .quartic_rules import SpecialQuartic, discriminants, is_nonneg
from .roots import RootCount, classify_roots, is_nonneg_everywhere, revise
from .scalars import QuadExt, parse_rational
from .unipoly import UniPoly, discriminant_sequence, squarefree_decompose, sturm_count

__version__ = "0.1.0"

__all__ = [
    "BcdeParams",
    "ClausePolynomials",
    "CyclicParams",
    "QuadExt",
    "RootCount",
    "SpecialQuartic",
    "UniPoly",
    "Verdict",
    "classify_roots",
    "decide",
    "decide_closed_form",
    "decide_oracle",
    "decide_structural",
    "discriminant_sequence",
    "discriminants",
    "eval_form",
    "eval_polys",
    "find_witness",
    "from_bcde",
    "is_nonneg",
    "is_nonneg_everywhere",
    "parse_rational",
    "r_range",
    "radicand",
    "reduce_to_g",
    "revise",
    "squarefree_decompose",
    "sturm_count",
    "__version__",
]
