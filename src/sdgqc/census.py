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
from functools import lru_cache
from typing import Optional, Sequence

from . import mass
from .constructions import quintic_map
from .fields import GF16, field_for
from .codes import EnumerationBudgetExceeded, LinearCode, _insert, _meet, kernel_basis


# ---------------------------------------------------------------------------
# census


def _iso_test(field, n: int, type2: bool):
    """<v, v> == 0 for a packed vector v; weight 0 mod 4 for Type II."""
    if type2:
        return lambda pv: pv.bit_count() % 4 == 0
    return field.isotropic(n)


#: a count known to exceed 2^E for E past this is refused without being
#: computed; up to it the count has under 4,300 digits (the default
#: int-to-str limit) and its product takes microseconds
_EXACT_BITS = 14_000


def _count_exponent(q: int, n: int, type2: bool) -> int:
    """E with 2^E <= the number of self-dual codes the census would list.

    Each factor 2^a + 1 of the mass formula exceeds 2^a, so E sums the
    exponents a (plus 1 for the leading 2 of the Type II count).
    """
    h = n // 2
    if q == 16:
        return 2 * h * h  # a = 4i + 2 for 0 <= i < h
    m = h - 2 if type2 else h - 1  # a = i for 1 <= i <= m
    return m * (m + 1) // 2 + int(type2)


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
    codes are sorted by their RREF rows.  A length whose mass-formula count
    exceeds code_limit is refused before the search; state_limit bounds
    the number of search-tree nodes visited.
    """
    if q not in (2, 16):
        raise ValueError("census supports q in {2, 16}")
    field = field_for(q)
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if type2 and (q != 2 or n % 8):
        raise ValueError("Type II censuses need q=2 and length divisible by 8")

    # feasibility: the leaves alone are this many.  Far past the limit the
    # lower bound alone refuses: the product would take minutes to compute
    exponent = _count_exponent(q, n, type2)
    if exponent > max(_EXACT_BITS, code_limit.bit_length()):
        raise EnumerationBudgetExceeded(f"more than 2^{exponent} codes, limit {code_limit}")
    if q == 2:
        expected = mass.t_type2(n) if type2 else mass.n_sd_binary(n)
    else:
        expected = mass.n_sd_hermitian16(n)
    if expected > code_limit:
        raise EnumerationBudgetExceeded(f"about {expected} codes, limit {code_limit}")

    ops = field.packed_ops(n)
    support, multiples = ops[2], field.multiples(n)
    iso = _iso_test(field, n, type2)
    # a self-dual C lies in w^perp for each w in C, and every binary one
    # contains the all-ones word
    constraints = [(1 << n) - 1] if q == 2 else []
    if containing is not None:
        word = LinearCode.from_rows(field, n, [containing])
        if not word.k:
            raise ValueError("containing-vector must be nonzero")
        constraints += word.basis
        if not iso(word.basis[0]):
            return 0, ([] if with_codes else None)
    found: list = []
    count = nodes = 0
    over = f"state budget {state_limit} exceeded"

    def grow(rows: tuple, dual: list, used: int, last: int) -> None:
        # A child appends r = (dual row of pivot p) + any combination of the
        # dual rows with later pivots, for p > last in a column no row uses.
        # A dual row's pivot symbol is 1, so its lowest set bit marks p.
        # The child's later pivots must fall in the free pivot columns (no
        # row uses them) after p that r leaves zero.  The dual is in RREF,
        # so r's symbol in a later row's pivot column is that row's
        # coefficient: r may have at most slack = (free pivots after p) -
        # need nonzero coefficients on the free-pivot rows.  Combinations
        # are therefore held in layers by that count t; a free-pivot row
        # moves them from layer t to t+1, a used-pivot row extends every
        # layer, no layer is built past the largest slack (`cap`, at the
        # first free row lo), and row p reads layers 0..slack only.  lo and
        # cap come from one list of the free rows after `last`; cap < 0 is a
        # dead end.  A child that completes the code (need == 0 here) is a
        # leaf: it is counted, and listed, where it is found, in the order a
        # visit would have reached it, without a call of its own.
        nonlocal count, nodes
        nodes += 1
        if nodes > state_limit:
            raise EnumerationBudgetExceeded(over)
        need = n // 2 - len(rows) - 1
        free_rows = [i for i, d in enumerate(dual) if d & -d > last and not used & d & -d]
        cap = len(free_rows) - 1 - need
        if cap < 0:
            return
        lo = free_rows[0]
        layers = [[0]]  # layers[t]: combinations with t nonzero free coefficients
        free = 0  # free pivots after row i
        for i in range(len(dual) - 1, lo - 1, -1):
            d = dual[i]
            p = d & -d
            if not used & p:
                for layer in layers[:max(free - need + 1, 0)]:
                    for s in layer:
                        r = d ^ s
                        if not iso(r):
                            continue
                        if need:
                            grow(rows + (r,), _meet(field, ops, dual, r), used | support(r), p)
                            continue
                        nodes += 1
                        if nodes > state_limit:
                            raise EnumerationBudgetExceeded(over)
                        count += 1
                        if with_codes:
                            found.append(rows + (r,))
                free += 1
            if i > lo:
                ms = multiples(d)[1:]
                if used & p:  # any coefficient: every layer grows
                    for layer in layers:
                        layer += [s ^ m for m in ms for s in layer]
                else:  # a nonzero coefficient moves t up one
                    if len(layers) <= cap:
                        layers.append([])
                    for t in range(len(layers) - 1, 0, -1):
                        layers[t] += [s ^ m for m in ms for s in layers[t - 1]]

    grow((), kernel_basis(field, constraints, n), 0, 0)
    if not with_codes:
        return count, None
    # sorted on the tuple view: packed-int order differs from it
    codes = [LinearCode(field, n, rows) for rows in found]
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
        raise EnumerationBudgetExceeded("brute-force type count needs 2^(5*ell) <= 2^22")
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


def sample_self_dual(q: int, n: int, seed: int, max_tries: int = 100000) -> LinearCode:
    """A uniformly random self-dual code, bit-exact reproducible per seed.

    Grows the code by repeatedly drawing a uniform element of the current
    dual until it is isotropic and outside the current span.  A draw takes
    one rng.randrange(q) per row of the dual's reduced echelon basis pivoted
    on each row's last nonzero column, in ascending pivot order; that basis
    is unique, so the draws are fixed by the seed.  random.Random seeds
    from |seed|, so a negative seed would repeat its positive twin's code;
    it is refused.
    """
    field = field_for(q)
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ops = scale, _, _ = field.packed_ops(n)
    iso = field.isotropic(n)
    rng = random.Random(seed)
    rows: list = []
    # held last pivot first, the order in which _meet keeps it reduced
    dual = [1 << i * field.bits for i in reversed(range(n))]
    while len(rows) < n // 2:
        for _ in range(max_tries):
            w = 0
            for d in reversed(dual):
                c = rng.randrange(q)
                if c:
                    w ^= scale(c, d)
            if w and iso(w) and _insert(field, scale, rows, w):
                break
        else:
            raise RuntimeError("sampler failed to extend; raise max_tries")
        if len(rows) < n // 2:
            dual = _meet(field, ops, dual, w)
    return LinearCode(field, n, tuple(rows))
