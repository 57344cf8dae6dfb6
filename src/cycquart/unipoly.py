"""Dense univariate polynomials over Fraction or QuadExt scalars.

Coefficients are stored leading-first: ``[a0, a1, ..., an]`` represents
``a0*x**n + a1*x**(n-1) + ... + an``.  The module provides evaluation,
derivatives, gcd, squarefree decomposition, Sturm chains with exact
root counting, and the discriminant sequence, read off the leading
coefficients of the field remainder sequence of (f, f').
The gcd and the Sturm chain share one remainder sequence, and each root
count runs it once: the chain of p ends at gcd(p, p'), so the gcd is read
off the chain, and only a non-squarefree p needs a second chain, of
p / gcd(p, p').  Yun's squarefree decomposition computes gcd(p, p') by a
remainder sequence of its own.  The sequence divides by no coefficient:
each remainder is a signed pseudo-remainder, a positive multiple of the
negated field remainder, divided by its positive rational content.  Only
``monic`` and the exact quotients of ``poly_divmod`` (Yun, the squarefree
part) invert a coefficient, once per call (``QuadExt.reciprocal``).

Each coefficient keeps its own domain: rationals are ``Fraction`` and a
``QuadExt`` stays as given, so the reduced quartic, whose only irrational
coefficient is sqrt(R), does rational arithmetic wherever it can.  The
scalars' own operators mix the two domains and reject two different
radicands; zero tests are exact signs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .scalars import QuadExt, sgn

__all__ = [
    "UniPoly",
    "poly_gcd",
    "squarefree_decompose",
    "sturm_chain",
    "squarefree_sturm",
    "chain_variations",
    "count_sign_changes",
    "sturm_count",
    "discriminant_sequence",
]


class UniPoly:
    """Immutable dense polynomial; the zero polynomial has no coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        items = [c if isinstance(c, QuadExt) else Fraction(c) for c in coeffs]
        idx = 0
        while idx < len(items) and sgn(items[idx]) == 0:
            idx += 1
        object.__setattr__(self, "coeffs", tuple(items[idx:]))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly values are immutable")

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self - other).is_zero

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        off = len(a) - len(b)
        out = a[:off] + [a[off + i] + b[i] for i in range(len(b))]
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def scale(self, c) -> "UniPoly":
        if sgn(c) == 0:
            return UniPoly([])
        return UniPoly([a * c for a in self.coeffs])

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self) -> "UniPoly":
        n = self.degree
        if n <= 0:
            return UniPoly([])
        return UniPoly([c * (n - i) for i, c in enumerate(self.coeffs[:-1])])

    def eval(self, x):
        """Exact value at ``x`` (Horner), in the joint scalar domain."""
        acc = None
        for c in self.coeffs:
            acc = c if acc is None else acc * x + c
        return Fraction(0) if acc is None else acc

    def monic(self) -> "UniPoly":
        """Times the reciprocal of the leading coefficient, taken once."""
        if self.is_zero:
            return self
        lead = self.leading
        inv = lead.reciprocal() if isinstance(lead, QuadExt) else 1 / lead
        return UniPoly([c * inv for c in self.coeffs])


def _positive_content(p: UniPoly) -> Fraction:
    """A positive rational scalar dividing all coefficient components."""
    parts = [
        f
        for c in p.coeffs
        for f in ((c.u, c.v) if isinstance(c, QuadExt) else (c,))
    ]
    num = math.gcd(*(f.numerator for f in parts))
    if num == 0:  # no nonzero component
        return Fraction(1)
    return Fraction(num, math.lcm(*(f.denominator for f in parts)))


def _normalized(p: UniPoly, sign: int = 1) -> UniPoly:
    """Divide by the positive content, and multiply by ``sign`` (1 or -1)."""
    c = _positive_content(p)
    return p if c == sign else p.scale(Fraction(sign) / c)


def poly_divmod(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder with exact field division."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dg = g.degree
    if f.degree < dg:
        return UniPoly([]), f
    quot = [Fraction(0)] * (f.degree - dg + 1)
    lead = g.leading
    inv = lead.reciprocal() if isinstance(lead, QuadExt) else 1 / lead
    for i in range(len(quot)):
        c = rem[i]
        if sgn(c) == 0:
            continue
        q = c * inv
        quot[i] = q
        for j, gc in enumerate(g.coeffs):
            rem[i + j] = rem[i + j] - q * gc
    return UniPoly(quot), UniPoly(rem[-dg:] if dg > 0 else [])


def _pseudo_remainder(a: UniPoly, b: UniPoly) -> tuple[UniPoly, int]:
    """``lc(b)**steps * rem(a, b)`` by pseudo-division, with that factor's sign.

    Each step ``r <- lc(b)*r - lc(r)*x**k*b`` cancels the leading term of
    ``r`` with no coefficient division; a position that is already zero is
    skipped and costs no step.
    """
    rem = list(a.coeffs)
    tail = b.coeffs[1:]
    lead = b.leading
    split = max(len(rem) - len(tail), 0)
    steps = 0
    for i in range(split):
        c = rem[i]
        if sgn(c) == 0:
            continue
        steps += 1
        for j in range(i + 1, len(rem)):
            rem[j] = rem[j] * lead
        for j, bc in enumerate(tail, i + 1):
            rem[j] = rem[j] - c * bc
    return UniPoly(rem[split:]), -1 if steps % 2 and sgn(lead) < 0 else 1


def _remainder_sequence(a: UniPoly, b: UniPoly) -> list[UniPoly]:
    """``[a, b, r1, r2, ...]`` with ``r(i+1)`` the remainder of the two
    entries before it, negated and divided by its positive content.

    The remainder is a pseudo-remainder, a multiple of the field remainder
    by a power of the divisor's leading coefficient; the power's sign goes
    into the negation, so each entry is a positive multiple of the negated
    field remainder, and no step divides by a coefficient.  Stops at the
    first zero remainder, so only ``b`` may be zero; the last nonzero entry
    is a multiple of gcd(a, b).
    """
    seq = [a, b]
    while not seq[-1].is_zero:
        r, factor_sign = _pseudo_remainder(seq[-2], seq[-1])
        if r.is_zero:
            break
        seq.append(_normalized(r, -factor_sign))
    return seq


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd: the last nonzero entry of the remainder sequence."""
    seq = _remainder_sequence(a, b)
    return (seq[-2] if seq[-1].is_zero else seq[-1]).monic()


def squarefree_decompose(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition ``p = lc * prod(factor**multiplicity)``.

    Factors are monic, squarefree, pairwise coprime, and of positive degree;
    ``lc`` is the leading coefficient of ``p``.
    """
    if p.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if p.degree == 0:
        return []
    work = p.monic()
    deriv = work.derivative()
    g = poly_gcd(work, deriv)
    if g.degree == 0:
        return [(work, 1)]
    w, _ = poly_divmod(work, g)
    y, _ = poly_divmod(deriv, g)
    z = y - w.derivative()
    factors: list[tuple[UniPoly, int]] = []
    mult = 1
    while not z.is_zero:
        h = poly_gcd(w, z)
        if h.degree > 0:
            factors.append((h, mult))
        w, _ = poly_divmod(w, h)
        y, _ = poly_divmod(z, h)
        z = y - w.derivative()
        mult += 1
    if w.degree > 0:
        factors.append((w, mult))
    return factors


# -- Sturm chains ------------------------------------------------------------


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Negated-remainder chain of (p, p'); ends at (a multiple of) gcd(p, p')."""
    if p.is_zero:
        raise ValueError("no Sturm chain for the zero polynomial")
    return _remainder_sequence(p, p.derivative())


def count_sign_changes(signs) -> int:
    """Sign changes with zeros dropped."""
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def chain_variations(chain: list[UniPoly], x) -> int:
    """Sign changes of the chain's values at the point ``x``."""
    return count_sign_changes([sgn(q.eval(x)) for q in chain])


def squarefree_sturm(p: UniPoly) -> tuple[list[UniPoly], int, int]:
    """Sturm chain of the squarefree part of ``p`` (degree >= 1), with its
    sign changes at -oo and at +oo.

    The difference of the two counts is the number of distinct real roots.
    The chain of ``p`` itself ends at a multiple of gcd(p, p'), so the gcd
    is read off it rather than computed by a second remainder sequence: a
    constant last entry means ``p`` is squarefree and its chain is the
    answer; otherwise the chain is rebuilt on ``p / gcd(p, p')``.
    """
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        squarefree, _ = poly_divmod(chain[0], chain[-1].monic())
        chain = sturm_chain(squarefree)
    at_plus = [sgn(q.leading) for q in chain]
    at_minus = [-s if q.degree % 2 else s for q, s in zip(chain, at_plus)]
    return chain, count_sign_changes(at_minus), count_sign_changes(at_plus)


def sturm_count(
    p: UniPoly,
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
) -> int:
    """Number of distinct real roots of ``p`` in ``(lo, hi]``.

    ``None`` endpoints mean -oo / +oo.  Multiple roots are counted once:
    the chain is built on the squarefree part.  With the zeros-dropped
    variation count, the chain's variation function is right-continuous,
    which makes the half-open convention exact even at root endpoints.
    An empty interval (``lo == hi``) holds no root; ``lo > hi`` raises
    ``ValueError``.
    """
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"inverted interval: lo = {lo} > hi = {hi}")
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    chain, at_minus, at_plus = squarefree_sturm(p)
    at_lo = at_minus if lo is None else chain_variations(chain, lo)
    at_hi = at_plus if hi is None else chain_variations(chain, hi)
    return at_lo - at_hi


# -- discriminant sequence ----------------------------------------------------


def discriminant_sequence(p: UniPoly) -> list:
    """Discriminant sequence ``[D1, ..., Dn]`` of a degree-n polynomial.

    ``Dk``, the order-2k leading principal minor of the discrimination
    matrix of (f, f'), is ``(-1)**(k(k-1)/2) * a0 * psc(n-k)``: its first
    column is (a0, 0, ..., 0), and it leaves the Sylvester matrix of the
    principal subresultant coefficient psc(n-k) of (f, f'), rows reordered.
    By the fundamental theorem of subresultants (Collins 1967; Brown &
    Traub 1971), psc is 0 off the degrees ni of the field remainders
    r0 = f, r1 = f', r(i+1) = rem(r(i-1), r(i)), and with pi = lc ri,
    psc(ni) = (-1)**ti * pi**(n(i-1) - ni) * prod(pj**(n(j-1) - n(j+1))),
    ti = sum((n(j-1) - ni) * (nj - ni)), both over 1 <= j < i.  D3 of a
    quartic is halved, to match the classical formula; only signs are read.
    """
    n = p.degree
    if n < 1:
        raise ValueError("discriminant sequence needs degree >= 1")
    rems = [p, p.derivative()]
    while rems[-1].degree > 0:
        rems.append(poly_divmod(rems[-2], rems[-1])[1])
    if rems[-1].is_zero:
        rems.pop()
    degs = [q.degree for q in rems]
    psc, acc = {}, Fraction(1)  # acc: the product over j < i
    for i in range(1, len(rems)):
        ni, lead = degs[i], rems[i].leading
        tau = sum((degs[j - 1] - ni) * (degs[j] - ni) for j in range(1, i))
        psc[ni] = (-1) ** tau * math.prod([lead] * (degs[i - 1] - ni), start=acc)
        if i + 1 < len(rems):
            acc = math.prod([lead] * (degs[i - 1] - degs[i + 1]), start=acc)
    seq = [(-1) ** (k * (k - 1) // 2) * p.leading * psc.get(n - k, 0) for k in range(1, n + 1)]
    if n == 4:
        seq[2] = seq[2] * Fraction(1, 2)
    return seq
