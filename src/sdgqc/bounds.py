"""Existence inequalities, per-weight word bounds, entropy asymptotics.

Every fact about the quintic image that the bounds use comes from its one
table in `constructions`, `_QUINTIC` = (field, block masks): the block
count m = len(masks) (the code length is m*ell), the field size q (the
GF(q) counting ratio is `mass.ratio(q, ell)`), and the per-coordinate
cells `_QUINTIC_CELLS`, read off the table's own map.

Two evaluation modes are provided for each existence inequality.  "literal"
reproduces the printed inequality term for term, including its e=0 and odd-e
summands and the coefficients 2^((ell-2)/2), 2^(2*ell-2).  "exact" is the
certifying form: it sums only even weights e >= 2 (the zero word lies in
every code, odd weights cannot occur in a binary self-dual code) and uses
the exact counting ratios 2^(ell/2-1)+1 and 2^(2*ell-2)+1 of `mass` with
all arithmetic in big integers.

Both modes share the printed zero-binary-component summand
C(ell, e/2)*(q-1)^(e/2), `a2_bound(ell, e, LITERAL)` (see `_summands`).  It
is at least the true count of such words, the coefficient of z^e in
(1 + 10z^2 + 5z^4)^ell, only for e <= 2*ell; every certified d* in
tests/fixtures/dstar_fixtures.json (24 at ell=40, 46 at 80, 90 at 160, 178
at 320) lies in that range.  `a2_bound` gives the exact count by default.

`_sides` owns the inequality's two sides: the right-hand side, the
product of the counting ratios, and the running left-hand side at
d = 1, 2, ..., one big-integer sum over the weight-e summands for e < d.
`check`, `max_distance` and `mode_discrepancies` only read it.  It also
refuses, with ValueError and before any sum, a length whose work estimate
(the weights summed times m*ell bits) passes `_MAX_WORK`: the work grows
with the square of ell.

`count_words_by_type` and the exact `a2_bound` count the quintic image's
words of each type and weight exactly, at every block length, by character
sums over the cells; `_power_coefficients` streams the coefficients of each
character's polynomial power by J.C.P. Miller's recurrence.
"""

from __future__ import annotations

import math
from collections import Counter, deque, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, islice

from . import mass
from .constructions import _QUINTIC, _block_map

_FIELD, _MASKS = _QUINTIC
#: the block count: the image of ell coordinates has length _M * ell
_M = len(_MASKS)

LITERAL = "literal"
EXACT = "exact"


#: one evaluated existence inequality: lhs < rhs is `holds`, and delta is
#: d/(m*ell)
BoundReport = namedtuple("BoundReport", "ell d mode type2 lhs rhs holds delta")
#: one row of `asymptote_table`
AsymptoteRow = namedtuple("AsymptoteRow", "ell d_star delta mode")


def a1_bound(ell: int, d: int) -> int:
    """Per-weight bound for words with both components nonzero.

    Returns the unsubtracted C(m*ell, d): subtracting the other types'
    upper bounds would not be a sound upper bound.
    """
    return math.comb(_M * ell, d)


def a2_bound(ell: int, d: int, mode: str = EXACT) -> int:
    """Per-weight bound for words with zero binary component.

    A nonzero GF(16) symbol expands to a binary block of weight 2 (10 of
    the 15 symbols) or weight 4 (the other 5).  EXACT returns the exact
    count, the coefficient of z^d in (1 + 10z^2 + 5z^4)^ell, counted over
    the x = 0 cells.  LITERAL returns the printed C(ell, d/2)*(q-1)^(d/2),
    which takes every symbol to weight 2 and so falls below the true count
    once d > 2*ell.
    """
    if mode not in (LITERAL, EXACT):
        raise ValueError(f"unknown mode {mode!r}")
    if d < 0 or d % 2:
        return 0
    if mode == LITERAL:
        return math.comb(ell, d // 2) * (_FIELD.q - 1) ** (d // 2)
    return _words_of_weight(_A2_CELLS, ell, d, False)


def a3_bound(ell: int, d: int) -> int:
    """Per-weight bound for words with zero GF(16) component."""
    return 0 if d < 0 or d % _M else math.comb(ell, d // _M)


#: the quintic map's coordinate pairs (x, s), x in GF(2) and s in GF(16), as
#: cells (x, Hermitian norm s*conj(s) = s^5, weight of the pair's 5-bit
#: block).  The norm is zero only at s = 0.
_QUINTIC_CELLS = tuple(
    (x, _FIELD.mul(s, _FIELD.conjugate(s)), sum(_block_map(_QUINTIC, (x,), (s,))))
    for x in (0, 1) for s in range(_FIELD.q)
)
#: the cells with zero binary part, and those with zero GF(16) part
_A2_CELLS = tuple(c for c in _QUINTIC_CELLS if not c[0])
_A3_CELLS = tuple(c for c in _QUINTIC_CELLS if not c[1])


def _power_coefficients(p: Sequence[int], m: int) -> Iterator[int]:
    """The coefficients of P(z)^m at z^0, z^1, ..., z^(m*deg P), for the
    nonconstant integer polynomial P(z) = p[0] + p[1]*z + ... with p[0] = 1.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): Q = P^m has
    P*Q' = m*P'*Q, so k*q[k] = sum over i >= 1 of p[i]*(m*i - (k-i))*q[k-i],
    and the division by k is exact.  The last deg P coefficients are the
    whole state, and P's zero coefficients are skipped.
    """
    terms = [(i, c) for i, c in enumerate(p) if i and c]
    deg = terms[-1][0]
    past = deque([1], maxlen=deg)  # past[j] = q[k-1-j]
    yield 1
    for k in range(1, m * deg + 1):
        qk = sum(c * ((m + 1) * i - k) * past[i - 1] for i, c in terms if i <= k) // k
        past.appendleft(qk)
        yield qk


def _words_of_weight(cells, ell: int, d: int, restricted: bool) -> int:
    """Number of words in cells^ell of weight d >= 0; with restricted, only
    those whose x sum to 0 in GF(2) and whose norms sum to 0 in GF(q).

    That condition's indicator is the mean of the 2q characters
    (-1)^(e*sum(x) + |a & sum(norms)|), e < 2, a < q (|.| counts set
    bits), and each character is a product over the coordinates, so the
    count is the coefficient of z^d in (1/2q) sum_{e,a} P_{e,a}(z)^ell,
    where P_{e,a}(z) is the sum over the cells of (-1)^(e*x + |a & n|) z^w;
    unrestricted, the trivial character alone.  Every P has P(0) = 1: the
    cell (0, 0, 0) is in every table, each character is +1 on it, and no
    other cell has weight 0.  Characters equal on every cell give one P,
    whose power is streamed once.
    """
    chars = [(e, a) for e in (0, 1) for a in range(_FIELD.q)] if restricted else [(0, 0)]
    polys = Counter(
        tuple(sum((-1) ** (e * x + (a & n).bit_count()) for x, n, w in cells if w == j) for j in range(_M + 1))
        for e, a in chars
    )
    total = sum(k * next(islice(_power_coefficients(p, ell), d, None), 0) for p, k in polys.items())
    return total // len(chars)


def count_words_by_type(ell: int, d: int, restricted: bool = False):
    """(a1, a2, a3): the numbers of weight-d words of the quintic image at
    block length ell with both components nonzero, with zero binary
    component, and with zero GF(16) component.

    With restricted=True only words with even-weight x and
    Hermitian-isotropic s (the norms s_i^5 sum to 0) count.  The words over
    the x = 0 cells and over the s = 0 cells give a2 and a3, and the rest
    of all words give a1.  The map is one-to-one on each coordinate's 2q
    pairs, so only the zero word weighs 0.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0 < d <= _M * ell:
        return 0, 0, 0
    a2 = _words_of_weight(_A2_CELLS, ell, d, restricted)
    a3 = _words_of_weight(_A3_CELLS, ell, d, restricted)
    return _words_of_weight(_QUINTIC_CELLS, ell, d, restricted) - a2 - a3, a2, a3


def _coefficients(ell: int, mode: str, type2: bool):
    """(coef2, coef16, rhs): the counting ratios N/M of `mass`, binary (or
    Type II) and GF(16), less one each in LITERAL mode, and their product."""
    ratios = (mass.ratio(2, ell, type2=type2), mass.ratio(_FIELD.q, ell))
    if mode not in (LITERAL, EXACT):
        raise ValueError(f"unknown mode {mode!r}")
    coef2, coef16 = (r - (mode == LITERAL) for r in ratios)
    return coef2, coef16, ratios[0] * ratios[1]


def _summands(ell: int, mode: str, coef2: int, coef16: int) -> Iterator[int]:
    """The weight-e summands of the left-hand side for e = 0, 1, ..., n,
    with n = m*ell the code length: C(n, e) + coef2*C(ell, e/2)*(q-1)^(e/2)
    + coef16*C(ell, e/m), a term with a fractional index counting 0, and in
    EXACT mode 0 at e = 0 and at odd e.

    The A2 part is the printed `a2_bound(ell, e, LITERAL)` in both modes,
    not the exact `a2_bound(ell, e)`: it bounds the true count only for
    e <= 2*ell.  C(n, e) and the two coefficient-weighted terms
    coef2*C(ell, e/2)*(q-1)^(e/2) and coef16*C(ell, e/m) are each stepped
    forward by their multiplicative recurrence rather than recomputed from
    scratch: C(n, e+1) = C(n, e)*(n-e)/(e+1), exactly.  A weighted term
    steps by the same ratio, and its division stays exact because
    C(ell, h)*(ell-h)/(h+1) = C(ell, h+1) is an integer; carrying the
    coefficient saves one big-integer product per weight.  Inline
    recurrences keep this hot loop faster than reading
    `_power_coefficients` streams.
    """
    blocks, units = _M, _FIELD.q - 1
    n = blocks * ell
    skip = mode == EXACT  # the zero word and odd weights
    # C(n, e), coef2*C(ell, e/2)*(q-1)^(e/2), coef16*C(ell, e/m)
    a1, a2, a3 = 1, coef2, coef16
    for e in range(n + 1):
        even = not e % 2
        if skip and (e == 0 or not even):
            yield 0
        else:
            t = a1
            if even:
                t += a2
            if e % blocks == 0:
                t += a3
            yield t
        a1 = a1 * (n - e) // (e + 1)
        if even:
            h = e // 2
            a2 = a2 * units * (ell - h) // (h + 1)
        if e % blocks == 0:
            f = e // blocks
            a3 = a3 * (ell - f) // (f + 1)


#: the most work _sides accepts, estimated as the weights summed times
#: m*ell bits: max_distance at ell = 13,106 (0.28 s on a 2-core host under
#: Python 3.11) is the largest it accepts, and summing all 65,531 weights
#: there takes 4.5 s
_MAX_WORK = 2**32


def _sides(ell: int, mode: str, type2: bool, last: int):
    """(rhs, running): the right-hand side, and an iterator over the
    left-hand side at d = 1, 2, ..., min(last, m*ell + 1), each the sum
    of the `_summands` below weight d.  No word is heavier than m*ell, so
    the left-hand side at any larger d is the one at m*ell + 1.  Refused
    with ValueError, before any sum, when the work estimate passes
    _MAX_WORK, and by `mass.ratio`, before any ratio is built, when a
    counting ratio passes 2^mass._MAX_BITS (GF(16) ell > 1,048,576)."""
    coef2, coef16, rhs = _coefficients(ell, mode, type2)
    weights = min(last, _M * ell + 1)
    if weights * _M * ell > _MAX_WORK:
        raise ValueError(f"summing {weights} weights at ell={ell} is past the limit of {_MAX_WORK} bit-steps")
    return rhs, islice(accumulate(_summands(ell, mode, coef2, coef16)), weights)


def check(ell: int, d: int, mode: str, type2: bool = False) -> BoundReport:
    """The existence condition for a self-dual 5-quasi-cyclic code of
    length 5*ell and distance >= d: Theorem 1 with type2=False, and
    Theorem 2, for a doubly even (Type II) one, with type2=True."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rhs, running = _sides(ell, mode, type2, d)
    lhs = deque(running, maxlen=1).pop()
    return BoundReport(ell, d, mode, type2, lhs, rhs, lhs < rhs, Fraction(d, _M * ell))


def max_distance(ell: int, mode: str, type2: bool = False):
    """Largest d for which the inequality holds; monotone scan from d=1.

    Returns (d_star, report_at_d_star).
    """
    rhs, running = _sides(ell, mode, type2, _M * ell + 1)
    d_star = lhs = 0
    for d, total in enumerate(running, 1):
        if total >= rhs:
            break
        d_star, lhs = d, total
    if not d_star:
        return 0, None
    return d_star, BoundReport(ell, d_star, mode, type2, lhs, rhs, True, Fraction(d_star, _M * ell))


def mode_discrepancies(max_ell: int = 64) -> list[tuple]:
    """(ell, d) pairs where literal and exact disagree on `holds`,
    for even ell <= max_ell and 1 <= d <= 5*ell/2."""
    out = []
    for ell in range(2, max_ell + 1, 2):
        lit_rhs, lit = _sides(ell, LITERAL, False, _M * ell // 2)
        ex_rhs, ex = _sides(ell, EXACT, False, _M * ell // 2)
        for d, (lit_lhs, ex_lhs) in enumerate(zip(lit, ex), 1):
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


#: inverse_entropy bisects until its bracket is this narrow
_ENTROPY_TOL = 1e-9


def inverse_entropy(q: int, y: float) -> float:
    """The unique x in [0, (q-1)/q] with entropy(q, x) = y, by bisection."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0 <= y <= 1:
        raise ValueError(f"y={y} outside [0, 1]")
    lo, hi = 0.0, (q - 1) / q
    while hi - lo > _ENTROPY_TOL:
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


def asymptote_table(construction: str, ells: Iterable[int], mode: str) -> list[AsymptoteRow]:
    """Certified relative distances delta*(ell) = d*(ell)/(5*ell)."""
    if construction not in ("quintic", "quintic_type2"):
        raise ValueError(f"unknown construction {construction!r}")
    type2 = construction == "quintic_type2"
    rows = []
    for ell in sorted(ells):
        d_star, _ = max_distance(ell, mode, type2=type2)
        delta = d_star / (_M * ell)
        rows.append(AsymptoteRow(ell, d_star, delta, mode))
    return rows
