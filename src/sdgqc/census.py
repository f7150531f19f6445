"""Exhaustive enumeration and seeded random sampling of self-dual codes.

The census is the ground-truth oracle for the counting formulas: it builds
every self-dual code of a given (small) length exactly once, by orderly
generation (Read 1978; McKay 1998).  A search-tree node is a self-orthogonal
code held as its packed RREF rows, and its parent is the code of its first
k-1 rows, so each self-dual code is one leaf.  The sampler grows a
random self-dual code one uniformly chosen isotropic vector at a time; the
generator is Python's Mersenne Twister (random.Random), seeded with a
64-bit integer, which is the repository's fixed reproducibility contract.

Binary codes use the Euclidean inner product, GF(4)/GF(16) the Hermitian
one, throughout.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from operator import xor
from typing import Optional, Sequence

from . import mass
from .constructions import quintic_map
from .fields import Field, GF16, field_for
from .codes import (
    EUCLIDEAN,
    HERMITIAN,
    LinearCode,
    inner_product,
    kernel_basis,
    pack,
    rref,
    scalar_mul,
    symbol_mask,
    unpack,
    vec_add,
)


class CensusInfeasible(Exception):
    """Raised when an exhaustive enumeration would exceed its budget."""


def designated_inner(field: Field) -> str:
    return EUCLIDEAN if field.q == 2 else HERMITIAN


def _is_isotropic(field: Field, v, inner: str) -> bool:
    return inner_product(field, v, v, inner) == 0


# ---------------------------------------------------------------------------
# census


def _iso_test(pair, type2: bool):
    """<v, v> == 0 for a packed vector v; weight 0 mod 4 for Type II."""
    if type2:
        return lambda pv: pv.bit_count() % 4 == 0
    return lambda pv: pair(pv, pv) == 0


def _packed_ops(field: Field, n: int):
    """(scale, pair, support) on packed vectors: c*v, the designated inner
    product <x, y>, and the nonzero columns of v (low bit of each slot)."""
    if field.q == 2:
        return (lambda c, v: v if c else 0), (lambda x, y: (x & y).bit_count() & 1), (lambda v: v)
    mask = symbol_mask(field, n)
    prod = [[field.mul(a, field.conjugate(c)) for c in field.elements()] for a in field.elements()]
    return (
        lambda c, v: pack(field, scalar_mul(field, c, unpack(field, v, n))),
        lambda x, y: reduce(xor, [prod[x >> s & 0xF][y >> s & 0xF] for s in range(0, 4 * n, 4)]),
        lambda v: (v | v >> 1 | v >> 2 | v >> 3) & mask,
    )


def _meet(field: Field, ops, dual: list, w: int) -> list:
    """RREF (pivot, row) pairs of span(dual) ∩ w^perp: of the rows not
    orthogonal to w, the one with the last pivot is eliminated from the rest."""
    scale, pair, _ = ops
    vals = [pair(row, w) for _, row in dual]
    j = max((i for i, a in enumerate(vals) if a), default=None)
    if j is None:
        return dual
    inv, rj = field.inverse(vals[j]), dual[j][1]
    return [(p, row ^ scale(field.mul(a, inv), rj) if a else row)
            for i, ((p, row), a) in enumerate(zip(dual, vals)) if i != j]


def census(
    q: int,
    n: int,
    *,
    type2: bool = False,
    containing: Optional[Sequence[int]] = None,
    with_codes: bool = False,
    code_limit: int = 10**6,
    state_limit: int = 10**8,
):
    """Exact count (and optionally the list) of self-dual codes of length n.

    Returns (count, codes) where codes is None unless with_codes is set;
    codes are sorted by their RREF rows.  state_limit bounds the number of
    search-tree nodes visited.
    """
    if q not in (2, 16):
        raise ValueError("census supports q in {2, 16}")
    field = field_for(q)
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if type2 and (q != 2 or n % 8):
        raise ValueError("Type II censuses need q=2 and length divisible by 8")

    # feasibility: the leaves alone are this many
    if q == 2:
        expected = mass.t_type2(n) if type2 else mass.n_sd_binary(n)
    else:
        expected = mass.n_sd_hermitian16(n)
    if expected > code_limit:
        raise CensusInfeasible(f"about {expected} codes, limit {code_limit}")

    ops = scale, pair, support = _packed_ops(field, n)
    iso = _iso_test(pair, type2)
    b = field.bits
    # a self-dual C lies in w^perp for each w in C, and every binary one
    # contains the all-ones word
    constraints = [(1 << n) - 1] if q == 2 else []
    if containing is not None:
        v = tuple(containing)
        if len(v) != n:
            raise ValueError("containing-vector length mismatch")
        for s in v:
            field.check(s)
        if not any(v):
            raise ValueError("containing-vector must be nonzero")
        constraints.append(pack(field, v))
        if not iso(constraints[-1]):
            return 0, ([] if with_codes else None)
    root = [(i, 1 << (i * b)) for i in range(n)]
    for w in constraints:
        root = _meet(field, ops, root, w)
    found: list = []
    count = nodes = 0

    def grow(rows: tuple, dual: list, used: int, last: int) -> None:
        # A child appends r = (dual row of pivot p) + any combination of the
        # dual rows with later pivots, for p > last in a column no row uses.
        # The child's later pivots must fall in the dual's pivot columns
        # after p that r leaves zero too; fewer than `need` is a dead end.
        nonlocal count, nodes
        nodes += 1
        if nodes > state_limit:
            raise CensusInfeasible(f"state budget {state_limit} exceeded")
        need = n // 2 - len(rows) - 1
        if need < 0:
            count += 1
            if with_codes:
                found.append(rows)
            return
        lo = next((i for i, (p, _) in enumerate(dual) if p > last and not used >> p * b & 1),
                  len(dual))
        span = [0]  # combinations of the dual rows after index i
        free = 0  # their pivot columns that no row uses
        for i in range(len(dual) - 1, lo - 1, -1):
            p, d = dual[i]
            if not used >> p * b & 1:
                slack = free.bit_count() - need
                for r in (d ^ s for s in span) if slack >= 0 else ():
                    if (free & support(r)).bit_count() <= slack and iso(r):
                        child = _meet(field, ops, dual, r) if need else dual
                        grow(rows + (r,), child, used | support(r), p)
                free |= 1 << p * b
            if i > lo:
                span = [s ^ m for m in [scale(c, d) for c in field.elements()] for s in span]

    grow((), root, 0, -1)
    if not with_codes:
        return count, None
    codes = [LinearCode(field, n, tuple(unpack(field, r, n) for r in rows)) for rows in found]
    return count, sorted(codes, key=lambda c: c.rows)


# ---------------------------------------------------------------------------
# words of the quintic image, by type


@lru_cache(maxsize=None)
def _type_weight_tables(ell: int, restricted: bool):
    """Brute-force weight tables for the three word types of the quintic
    image at block length ell: (c1!=0, c2!=0), (c1=0, c2!=0), (c1!=0, c2=0).

    With restricted=True only even-weight x and Hermitian-isotropic s are
    enumerated.
    """
    if ell < 1 or 2 ** (5 * ell) > 2**22:
        raise CensusInfeasible("brute-force type count needs 2^(5*ell) <= 2^22")
    f5 = [GF16.pow(a, 5) for a in range(16)]
    # contribution of symbol c at coordinate i, in block order (bit j*ell+i)
    blocks = [quintic_map((0,), (c,)) for c in range(16)]
    contrib = [
        [sum(bit << (j * ell + i) for j, bit in enumerate(blocks[c])) for c in range(16)]
        for i in range(ell)
    ]
    x_rep = [sum(((x >> i) & 1) << (j * ell + i) for i in range(ell) for j in range(5))
             for x in range(1 << ell)]
    t1: dict = {}
    t2: dict = {}
    t3: dict = {}
    for sint in range(16**ell):
        pattern = 0
        acc5 = 0
        t = sint
        for i in range(ell):
            c = t & 0xF
            t >>= 4
            pattern |= contrib[i][c]
            acc5 ^= f5[c]
        if restricted and acc5:
            continue
        s_zero = sint == 0
        for x in range(1 << ell):
            if restricted and (x.bit_count() & 1):
                continue
            x_zero = x == 0
            if x_zero and s_zero:
                continue
            w = (pattern ^ x_rep[x]).bit_count()
            if x_zero:
                t2[w] = t2.get(w, 0) + 1
            elif s_zero:
                t3[w] = t3.get(w, 0) + 1
            else:
                t1[w] = t1.get(w, 0) + 1
    return t1, t2, t3


def count_words_by_type(ell: int, d: int, restricted: bool = False):
    """(a1, a2, a3): number of weight-d quintic-image words of each type."""
    t1, t2, t3 = _type_weight_tables(ell, restricted)
    return t1.get(d, 0), t2.get(d, 0), t3.get(d, 0)


# ---------------------------------------------------------------------------
# sampling


def _reduce_against(field: Field, rows, v):
    w = list(v)
    for row in rows:
        p = next(i for i, s in enumerate(row) if s)
        if w[p]:
            coef = w[p]
            w = [a ^ field.mul(coef, b) for a, b in zip(w, row)]
    return tuple(w)


def sample_self_dual(q: int, n: int, seed: int, max_tries: int = 100000) -> LinearCode:
    """A uniformly random self-dual code, bit-exact reproducible per seed.

    Grows the code by repeatedly drawing a uniform element of the current
    dual until it is isotropic and outside the current span.
    """
    field = field_for(q)
    inner = designated_inner(field)
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    rng = random.Random(seed)
    rows: list = []
    zero = (0,) * n
    while len(rows) < n // 2:
        dual = kernel_basis(field, rows, n, conjugate=(inner == HERMITIAN))
        for _ in range(max_tries):
            w = zero
            for b in dual:
                c = rng.randrange(q)
                if c:
                    w = vec_add(w, scalar_mul(field, c, b))
            if not any(w):
                continue
            if not _is_isotropic(field, w, inner):
                continue
            if not any(_reduce_against(field, rows, w)):
                continue
            rows, _ = rref(field, rows + [w], n)
            break
        else:
            raise RuntimeError("sampler failed to extend; raise max_tries")
    return LinearCode(field, n, tuple(rows))
