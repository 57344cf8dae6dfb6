"""Sign lists, revised sign lists, and exact real-root counting.

The revision rule replaces each interior run of zeros in a sign list
(bounded by nonzero entries on both sides) with the alternating pattern
``[-s, -s, s, s, -s, -s, ...]`` seeded by the sign ``s`` preceding the run.
For the discriminant sequence of a polynomial, the number of sign changes
``v`` of the revised list equals the number of distinct conjugate imaginary
root pairs, and ``nonvanishing - 2*v`` equals the number of distinct real
roots.

The module also provides an everywhere-nonnegativity oracle that avoids
discriminant sequences entirely: a real polynomial is nonnegative on all of
R iff it is zero, or has even degree, positive leading coefficient, and no
real root of odd multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import sgn
from .unipoly import (
    UniPoly,
    count_sign_changes,
    discriminant_sequence,
    squarefree_decompose,
    sturm_count,
)

__all__ = [
    "RootCount",
    "sign_list",
    "revise",
    "count_sign_changes",
    "root_count",
    "classify_roots",
    "is_nonneg_everywhere",
]


@dataclass(frozen=True)
class RootCount:
    distinct_real: int
    imaginary_pairs: int


def sign_list(values) -> list[int]:
    """Exact signs of a sequence of scalars."""
    return [sgn(v) for v in values]


def revise(signs: list[int]) -> list[int]:
    """Revised sign list.

    Only zero runs with nonzero entries on *both* sides are rewritten;
    leading and trailing zero runs are preserved.  Idempotent, and never
    touches nonzero entries.
    """
    out = list(signs)
    i = 0
    n = len(out)
    while i < n:
        if out[i] == 0:
            i += 1
            continue
        j = i + 1
        while j < n and out[j] == 0:
            j += 1
        if j < n and j > i + 1:
            s = out[i]
            for r in range(1, j - i):
                out[i + r] = (-1) ** ((r + 1) // 2) * s
        i = j
    return out


def root_count(revised: list[int]) -> RootCount:
    """Distinct real roots and imaginary pairs from a revised sign list."""
    v = count_sign_changes(revised)
    nonvanishing = sum(1 for s in revised if s != 0)
    return RootCount(distinct_real=nonvanishing - 2 * v, imaginary_pairs=v)


def classify_roots(p: UniPoly) -> RootCount:
    """Distinct real roots and imaginary pairs from the discriminant sequence."""
    if p.is_zero or p.degree < 1:
        raise ValueError("root classification needs degree >= 1")
    return root_count(revise(sign_list(discriminant_sequence(p))))


def is_nonneg_everywhere(p: UniPoly) -> bool:
    """True iff ``p(x) >= 0`` for every real ``x``.

    Decided by squarefree structure and Sturm counting: zero polynomial is
    nonnegative, constants go by their sign, odd degree or a negative
    leading coefficient fail, and otherwise nonnegativity is equivalent to
    every odd-multiplicity squarefree factor having no real root.
    """
    if p.is_zero:
        return True
    if p.degree == 0:
        return sgn(p.leading) >= 0
    if p.degree % 2 == 1 or sgn(p.leading) < 0:
        return False
    for factor, multiplicity in squarefree_decompose(p):
        if multiplicity % 2 == 1 and sturm_count(factor) > 0:
            return False
    return True
