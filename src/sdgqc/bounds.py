"""Existence inequalities, per-weight word bounds, entropy asymptotics.

Two evaluation modes are provided for each existence inequality.  "literal"
reproduces the printed inequality term for term, including its e=0 and odd-e
summands and the coefficients 2^((ell-2)/2), 2^(2*ell-2).  "exact" is the
certifying form: it sums only even weights e >= 2 (the zero word lies in
every code, odd weights cannot occur in a binary self-dual code) and uses
the exact counting ratios 2^(ell/2-1)+1 and 2^(2*ell-2)+1 with all
arithmetic in big integers.

Both modes share the printed zero-binary-component summand
C(ell, e/2)*15^(e/2), `a2_bound(ell, e, LITERAL)` (see `_term`).  It is at
least the true count of such words, the coefficient of z^e in
(1 + 10z^2 + 5z^4)^ell, only for e <= 2*ell; every certified d* in tests/fixtures/dstar_fixtures.json
(24 at ell=40, 46 at 80, 90 at 160, 178 at 320) lies in that range.
`a2_bound` gives the exact count by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from numbers import Rational
from typing import Iterable, Iterator, List

LITERAL = "literal"
EXACT = "exact"


@dataclass(frozen=True)
class BoundReport:
    ell: int
    d: int
    mode: str
    type2: bool
    lhs: int
    rhs: int
    holds: bool
    delta: Fraction


@dataclass(frozen=True)
class AsymptoteRow:
    ell: int
    d_star: int
    delta: float
    gqc_delta: float
    mode: str


def binom0(m: int, x) -> int:
    """C(m, x) if x is an integer in [0, m], else 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if isinstance(x, Rational):
        if x.denominator != 1:
            return 0
        x = int(x)
    elif not isinstance(x, int):
        raise TypeError("x must be an integer or a Fraction")
    if x < 0 or x > m:
        return 0
    return math.comb(m, x)


def a1_bound(ell: int, d: int) -> int:
    """Per-weight bound for words with both components nonzero.

    Returns the unsubtracted C(5*ell, d): subtracting the other types'
    upper bounds would not be a sound upper bound.
    """
    return math.comb(5 * ell, d)


def a2_bound(ell: int, d: int, mode: str = EXACT) -> int:
    """Per-weight bound for words with zero binary component.

    A nonzero GF(16) symbol expands to a binary block of weight 2 (10 of
    the 15 symbols) or weight 4 (the other 5).  EXACT returns the exact
    count, the coefficient of z^d in (1 + 10z^2 + 5z^4)^ell.  LITERAL
    returns the printed C(ell, d/2)*15^(d/2), which takes every symbol to
    weight 2 and so falls below the true count once d > 2*ell.
    """
    if mode not in (LITERAL, EXACT):
        raise ValueError(f"unknown mode {mode!r}")
    if d % 2:
        return 0
    half = d // 2
    if mode == LITERAL:
        return binom0(ell, half) * 15**half
    # i blocks of weight 4 and half - 2*i blocks of weight 2
    return sum(
        math.comb(ell, i) * math.comb(ell - i, half - 2 * i) * 5**i * 10 ** (half - 2 * i)
        for i in range(min(ell, half // 2) + 1)
    )


def a3_bound(ell: int, d: int) -> int:
    """Per-weight bound for words with zero GF(16) component."""
    return binom0(ell, Fraction(d, 5))


def _term(ell: int, e: int, mode: str, coef2: int, coef16: int) -> int:
    """One weight-e summand of the left-hand side.

    The A2 part is the printed `a2_bound(ell, e, LITERAL)` in both modes,
    not the exact `a2_bound(ell, e)`: it bounds the true count only for
    e <= 2*ell.  This closed form is the reference for `_summands`, which
    the left-hand sides are summed from.
    """
    if mode == EXACT and (e == 0 or e % 2):
        return 0
    t = math.comb(5 * ell, e) + coef2 * a2_bound(ell, e, LITERAL)
    if e % 5 == 0:
        t += coef16 * binom0(ell, e // 5)
    return t


def _coefficients(ell: int, mode: str, type2: bool):
    if type2:
        if ell <= 0 or ell % 8:
            raise ValueError("needs ell to be a positive multiple of 8")
        exp2 = ell // 2 - 2  # (ell-4)/2
    else:
        if ell <= 0 or ell % 2:
            raise ValueError("needs ell to be a positive even integer")
        exp2 = ell // 2 - 1  # (ell-2)/2
    exp16 = 2 * ell - 2
    if mode == LITERAL:
        coef2, coef16 = 2**exp2, 2**exp16
    elif mode == EXACT:
        coef2, coef16 = 2**exp2 + 1, 2**exp16 + 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rhs = (2**exp2 + 1) * (2**exp16 + 1)
    return coef2, coef16, rhs


def _summands(ell: int, mode: str, coef2: int, coef16: int) -> Iterator[int]:
    """`_term(ell, e, mode, coef2, coef16)` for e = 0, 1, ..., 5*ell.

    C(5*ell, e), the printed C(ell, e/2)*15^(e/2) and C(ell, e/5) are each
    stepped forward by their multiplicative recurrence rather than
    recomputed from scratch: C(m, e+1) = C(m, e)*(m-e)/(e+1), exactly.
    """
    m = 5 * ell
    skip = mode == EXACT  # the zero word and odd weights
    a1 = a2 = a3 = 1  # C(m, e), C(ell, e/2)*15^(e/2), C(ell, e/5)
    for e in range(m + 1):
        even = not e % 2
        if skip and (e == 0 or not even):
            yield 0
        else:
            t = a1
            if even:
                t += coef2 * a2
            if e % 5 == 0:
                t += coef16 * a3
            yield t
        a1 = a1 * (m - e) // (e + 1)
        if even:
            h = e // 2
            a2 = a2 * 15 * (ell - h) // (h + 1)
        if e % 5 == 0:
            f = e // 5
            a3 = a3 * (ell - f) // (f + 1)


def _check(ell: int, d: int, mode: str, type2: bool) -> BoundReport:
    if d < 1:
        raise ValueError("d must be >= 1")
    coef2, coef16, rhs = _coefficients(ell, mode, type2)
    # no word is heavier than 5*ell, and every later term is zero
    lhs = sum(islice(_summands(ell, mode, coef2, coef16), d))
    return BoundReport(ell, d, mode, type2, lhs, rhs, lhs < rhs, Fraction(d, 5 * ell))


def theorem1_check(ell: int, d: int, mode: str) -> BoundReport:
    """Existence condition for a self-dual 5-quasi-cyclic code of length
    5*ell and distance >= d."""
    return _check(ell, d, mode, type2=False)


def theorem2_check(ell: int, d: int, mode: str) -> BoundReport:
    """Existence condition for a doubly even self-dual 5-quasi-cyclic code."""
    return _check(ell, d, mode, type2=True)


def max_distance(ell: int, mode: str, type2: bool = False):
    """Largest d for which the inequality holds; monotone scan from d=1.

    Returns (d_star, report_at_d_star).
    """
    coef2, coef16, rhs = _coefficients(ell, mode, type2)
    d_star = lhs = 0
    for d, term in enumerate(_summands(ell, mode, coef2, coef16), 1):
        if lhs + term >= rhs:
            break
        d_star, lhs = d, lhs + term
    if not d_star:
        return 0, None
    return d_star, BoundReport(ell, d_star, mode, type2, lhs, rhs, True, Fraction(d_star, 5 * ell))


def mode_discrepancies(max_ell: int = 64) -> List[tuple]:
    """(ell, d) pairs where literal and exact disagree on `holds`,
    for even ell <= max_ell and 1 <= d <= 5*ell/2."""
    out = []
    for ell in range(2, max_ell + 1, 2):
        lit2, lit16, lit_rhs = _coefficients(ell, LITERAL, False)
        ex2, ex16, ex_rhs = _coefficients(ell, EXACT, False)
        lit_lhs = ex_lhs = 0
        terms = zip(_summands(ell, LITERAL, lit2, lit16), _summands(ell, EXACT, ex2, ex16))
        for d, (lit, ex) in enumerate(islice(terms, 5 * ell // 2), 1):
            lit_lhs += lit
            ex_lhs += ex
            if (lit_lhs < lit_rhs) != (ex_lhs < ex_rhs):
                out.append((ell, d))
    return out


# ---------------------------------------------------------------------------
# entropy and ball volumes


def entropy(q: int, x: float) -> float:
    """The q-ary entropy function, evaluated on [0, 1] (endpoints by
    continuity).  It reaches its maximum value 1 at x = (q-1)/q and is
    invertible only on [0, (q-1)/q]."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0 <= x <= 1:
        raise ValueError(f"x={x} outside [0, 1]")
    lg = math.log(q)
    if x == 0:
        return 0.0
    if x == 1:
        return math.log(q - 1) / lg if q > 2 else 0.0
    return (x * math.log(q - 1) - x * math.log(x) - (1 - x) * math.log(1 - x)) / lg


def inverse_entropy(q: int, y: float, tol: float = 1e-9) -> float:
    """The unique x in [0, (q-1)/q] with entropy(q, x) = y, by bisection."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0 <= y <= 1:
        raise ValueError(f"y={y} outside [0, 1]")
    lo, hi = 0.0, (q - 1) / q
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if entropy(q, mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ball_volume(q: int, n: int, r: int) -> int:
    """Exact volume of the Hamming ball of radius r in GF(q)^n."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return sum((q - 1) ** j * math.comb(n, j) for j in range(r + 1))


def asymptote_table(construction: str, ells: Iterable[int], mode: str) -> List[AsymptoteRow]:
    """Certified relative distances delta*(ell) = d*(ell)/(5*ell).

    gqc_delta is the 3/8-scaled value implied by the mixed-co-index direct
    sum of a cubic and a quintic code.
    """
    if construction not in ("quintic", "quintic_type2"):
        raise ValueError(f"unknown construction {construction!r}")
    type2 = construction == "quintic_type2"
    rows = []
    for ell in sorted(ells):
        d_star, _ = max_distance(ell, mode, type2=type2)
        delta = d_star / (5 * ell)
        rows.append(AsymptoteRow(ell, d_star, delta, 3 * delta / 8, mode))
    return rows
