"""Reference values the benchmark checks every op against.

Nothing here imports `sdgqc`: field arithmetic, the code-file parser, the
self-duality test, the counting products and the existence-bound sums are
written out again from their definitions, so that a defect in the package
cannot also hide in its check.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

# Field moduli, bit i = coefficient of x^i (GF(16): x^4+x^3+x^2+x+1).
_MODULUS = {4: 0b111, 16: 0b11111}


def _gf_mul(q: int, a: int, b: int) -> int:
    if q == 2:
        return a & b
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    deg = q.bit_length() - 1
    for shift in range(prod.bit_length() - 1, deg - 1, -1):
        if prod >> shift & 1:
            prod ^= _MODULUS[q] << (shift - deg)
    return prod


MUL = {q: [[_gf_mul(q, a, b) for b in range(q)] for a in range(q)] for q in (2, 4, 16)}


def _conjugate(q: int, a: int) -> int:
    """a^2 over GF(4), a^4 over GF(16), a over GF(2)."""
    power = {2: 1, 4: 2, 16: 4}[q]
    r = 1
    for _ in range(power):
        r = MUL[q][r][a]
    return r


CONJ = {q: [_conjugate(q, a) for a in range(q)] for q in (2, 4, 16)}


# ---------------------------------------------------------------------------
# code files


def parse_code(text: str):
    """`sdgqc-code v1` text -> (q, n, rows); raises ValueError if malformed."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 4 or lines[0] != "sdgqc-code v1":
        raise ValueError("not an sdgqc-code v1 file")
    head = {}
    for ln, key in zip(lines[1:4], ("q", "n", "k")):
        parts = ln.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"bad header line {ln!r}")
        head[key] = int(parts[1])
    q, n, k = head["q"], head["n"], head["k"]
    rows = [tuple(int(ch, 16) for ch in ln) for ln in lines[4:]]
    if q not in MUL or len(rows) != k or any(len(r) != n or max(r, default=0) >= q for r in rows):
        raise ValueError("rows do not match the header")
    return q, n, rows


def is_reduced_echelon(rows) -> bool:
    """Leading entries are 1, strictly to the right row by row, and alone
    in their column; such rows are linearly independent."""
    pivots = []
    for r in rows:
        lead = next((i for i, s in enumerate(r) if s), None)
        if lead is None or r[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(r[p] == 0 for i, r in enumerate(rows) for j, p in enumerate(pivots) if i != j)


def is_self_dual(q: int, n: int, rows) -> bool:
    """Independent rows spanning a code equal to its Euclidean (q=2) or
    Hermitian (q=4, 16) dual."""
    if 2 * len(rows) != n or not is_reduced_echelon(rows):
        return False
    if q == 2:
        packed = [int("".join(map(str, r)), 2) for r in rows]
        return all((u & v).bit_count() % 2 == 0 for i, u in enumerate(packed) for v in packed[i:])
    mul, conj = MUL[q], CONJ[q]
    conj_rows = [[conj[s] for s in r] for r in rows]
    for i, u in enumerate(rows):
        for v in conj_rows[i:]:
            acc = 0
            for a, b in zip(u, v):
                acc ^= mul[a][b]
            if acc:
                return False
    return True


# ---------------------------------------------------------------------------
# counting products


def _prod(factors) -> int:
    out = 1
    for f in factors:
        out *= f
    return out


def self_dual_count(q: int, ell: int, *, containing: bool = False, type2: bool = False) -> int:
    """Number of self-dual codes of length ell (binary Euclidean or GF(16)
    Hermitian), optionally only those containing a fixed admissible word or
    only the doubly even ones."""
    top = ell // 2 - (1 if containing else 0)
    if q == 16:
        return _prod(4 ** (2 * i + 1) + 1 for i in range(top))
    if type2:
        return 2 * _prod(2**i + 1 for i in range(1, top - 1))
    return _prod(2**i + 1 for i in range(1, top))


@contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit limit for the oracle's own conversions.

    Only the checker runs inside this block; the program under test always
    runs with the interpreter's default limit.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# existence inequality, normalised by the containing-word counts


def _weight_term(ell: int, e: int, coef2: int, coef16: int, exact: bool) -> int:
    if exact and (e == 0 or e % 2):
        return 0
    t = math.comb(5 * ell, e)
    if e % 2 == 0:
        t += coef2 * math.comb(ell, e // 2) * 15 ** (e // 2)
    if e % 5 == 0:
        t += coef16 * math.comb(ell, e // 5)
    return t


def _coefficients(ell: int, mode: str, type2: bool):
    ratio2 = 2 ** (ell // 2 - (2 if type2 else 1)) + 1
    ratio16 = 2 ** (2 * ell - 2) + 1
    if mode == "exact":
        return ratio2, ratio16, ratio2 * ratio16
    # the printed form drops the +1 of both ratios on the left-hand side
    return ratio2 - 1, ratio16 - 1, ratio2 * ratio16


def bound_sides(ell: int, d: int, mode: str, type2: bool):
    """(lhs, rhs) of the inequality for distance d: sum over weights e < d."""
    coef2, coef16, rhs = _coefficients(ell, mode, type2)
    lhs = sum(_weight_term(ell, e, coef2, coef16, mode == "exact") for e in range(d))
    return lhs, rhs


def largest_distance(ell: int, mode: str, type2: bool) -> int:
    """Largest d >= 1 whose inequality holds (0 if none does)."""
    coef2, coef16, rhs = _coefficients(ell, mode, type2)
    lhs = 0
    for d in range(1, 5 * ell + 2):
        lhs += _weight_term(ell, d - 1, coef2, coef16, mode == "exact")
        if lhs >= rhs:
            return d - 1
    return 5 * ell + 1


# ---------------------------------------------------------------------------
# entropy


def entropy(q: int, x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0 if x == 0.0 or q == 2 else math.log(q - 1, q)
    return x * math.log(q - 1, q) - x * math.log(x, q) - (1 - x) * math.log(1 - x, q)


def inverse_entropy(q: int, y: float) -> float:
    lo, hi = 0.0, (q - 1) / q
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if entropy(q, mid) < y else (lo, mid)
    return (lo + hi) / 2
