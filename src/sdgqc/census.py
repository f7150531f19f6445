"""Exhaustive enumeration and seeded random sampling of self-dual codes.

The census is the ground-truth oracle for the counting formulas: it counts
every self-dual code of a given (small) length exactly once, by orderly
generation (Read 1978; McKay 1998).  A search-tree node is a self-orthogonal
code held as its packed RREF rows, and its parent is the code of its first
k-1 rows, so each self-dual code is one leaf.  A self-dual code has no
zero column, so in its RREF each row's pivot is the first column that no
earlier row uses: a node branches only on the dual row pivoted there, and
on none where an earlier column is left unused.  The search grows each
distinct search state once and reuses its leaves wherever the state recurs
under another parent; a count adds them up, and a listing reads every leaf's
rows back along the states' children.  Each state sorts its children once,
by the text of their rows, so the listing comes out in text order with no
sort over the whole of it.
Over GF(4)/GF(16) a state's candidate rows d + s come in groups d + u*s,
u in U = {u : u*conj(u) = 1} (3 over GF(4), 5 over GF(16)).  When d, the
state's first free dual row, shares no column with the later dual rows
(whose combinations the s are), <d, s> = 0 and N(u) = 1 give every row of
a group d's isotropy, and every later row x pairs with d + u*s as conj(u)
times with d + s: the same row is eliminated, by the same ratios, into
the same child.  So the search grows one row per group, the s whose
coefficient on its highest-index row lies in GF(sqrt q)*, a transversal
of U, and counts its subtree |U| times; a listing gives the subtree all
|U| rows.  The zero combination is a group of its own.  Over
GF(2) U = {1}, as it is when d shares a column with a later row, and
every group has one row.
The sampler grows a random self-dual code one uniformly chosen isotropic
vector at a time, rejecting a draw that no row of the current dual pairs
nonzero with (one inside the span so far); the generator is Python's
Mersenne Twister (random.Random), seeded with a 64-bit integer, which is
the repository's fixed reproducibility contract.

Binary codes use the Euclidean inner product, GF(4)/GF(16) the Hermitian
one, throughout.  Both narrow a dual with `codes`' one elimination routine,
the dual meet (`_meet_row` finds the row, `_eliminate` removes it).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import reduce
from operator import or_

from . import mass
from .fields import field_for, norm_one
from .codes import EnumerationBudgetExceeded, LinearCode, _eliminate, _meet_row, kernel_basis


# ---------------------------------------------------------------------------
# census


#: a count known to exceed 2^E for E past this is refused without being
#: computed; up to it the count has under 4,300 digits (the default
#: int-to-str limit) and its product takes microseconds
_EXACT_BITS = 14_000
#: the census refuses a length with more self-dual codes than this
_CODE_LIMIT = 10**6
#: the census stops after visiting this many search-tree nodes; a state
#: whose count is reused, and a dead end skipped before its elimination,
#: is not a visit
_STATE_LIMIT = 10**8


def census(
    q: int,
    n: int,
    *,
    type2: bool = False,
    containing: Sequence[int] | None = None,
    with_codes: bool = False,
):
    """Exact count (and optionally the list) of self-dual codes of length n.

    Returns (count, codes) where codes is None unless with_codes is set;
    codes are in the order of their text (`LinearCode.dump`), which orders
    them as their RREF rows: each search state sorts its children by their
    row's text, so the listing needs no sort of its own.  A (q, n, type2)
    that `mass` has no count for raises ValueError, and a length whose
    count exceeds _CODE_LIMIT is refused before the search; _STATE_LIMIT
    bounds the number of search-tree nodes visited.
    """
    # feasibility: the leaves alone are this many.  Far past the limit the
    # lower bound alone refuses: the product would take minutes to compute
    exponent = mass.count_exponent(q, n, type2=type2)
    if exponent > _EXACT_BITS:
        raise EnumerationBudgetExceeded(f"more than 2^{exponent} codes, limit {_CODE_LIMIT}")
    expected = mass.count(q, n, type2=type2)
    if expected > _CODE_LIMIT:
        raise EnumerationBudgetExceeded(f"about {expected} codes, limit {_CODE_LIMIT}")

    field = field_for(q)
    ops = field.packed_ops(n)
    support, multiples, pair = ops.support, ops.multiples, ops.pair
    # a row's own test: <v, v> == 0, or weight 0 mod 4 for Type II
    iso = (lambda pv: pv.bit_count() % 4 == 0) if type2 else ops.isotropic
    units, fixed = norm_one(field)
    size = len(units)
    opening = [c - 1 for c in fixed]  # indexes into a row's nonzero multiples
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
    nodes = 0
    state_limit = _STATE_LIMIT  # a local, so grow reads a closure cell
    over = f"state budget {state_limit} exceeded"
    # each distinct child state's (leaves, kids), grown once
    memo: dict = {}

    def grow(dual: list, used: int, depth: int) -> tuple:
        # Returns (leaves, kids): the number of leaves below this node and,
        # when listing, its children as (r, the child's kids), or (r, None)
        # for a leaf; kids is None on a count.  dual holds the rows of the
        # code's dual whose pivots come after the last row's pivot, and used
        # the union of the rows' supports.  A column left of a row's pivot is
        # zero in it and in every later row, so an unused one there is zero
        # in the whole code, and a self-dual code has none (its unit vector
        # would lie in C^perp = C, and no unit vector is isotropic).  So the
        # next row's pivot p is the first unused column, that of the first
        # free dual row d (a pivot symbol is 1: its lowest set bit marks p),
        # or the node has no leaves.  A child appends r = d + any combination
        # of the later dual rows and gets those rows, met with r.  Its later
        # pivots must fall in free pivot columns that r leaves zero, and r's
        # symbol in a later row's pivot column is that row's coefficient, so
        # r may have at most cap = (free pivots after p) - need nonzero
        # coefficients on free-pivot rows.  Combinations are held in layers
        # by that count t: a free-pivot row moves them from layer t to t+1,
        # a used-pivot row extends every layer.  A child with t == cap whose
        # eliminated row j (the last one r meets) has a free pivot that r
        # leaves zero would have need - 1 free pivots for need rows: that
        # dead end is skipped before the elimination, so only the root can
        # find cap < 0.  A child that completes the code is a leaf with no
        # call; leaves are counted as visits once, after the loop.  Each
        # (dual, used, depth) is grown once, and a memo hit is not a visit.
        # A grouped state (the module docstring's lemma: |U| > 1 and d
        # disjoint from the later rows) holds the zero combination apart
        # while the layers grow, so a row that opens a combination takes a
        # coefficient in GF(sqrt q)* alone, and the zero goes in a layer of
        # its own, last: d meets no later row, so its t is never read, and
        # the loop's last got is its subtree.  Each other kid then stands
        # for its group's |U| rows.
        nonlocal nodes
        nodes += 1
        if nodes > state_limit:
            raise EnumerationBudgetExceeded(over)
        need = n // 2 - depth
        free_rows = [i for i, d in enumerate(dual) if not used & d & -d]
        cap = len(free_rows) - 1 - need
        kids = [] if with_codes else None
        if cap < 0:
            return 0, kids
        lo = free_rows[0]
        d = dual[lo]
        p = d & -d
        if support(p - 1) & ~used:  # a column before p that no row uses
            return 0, kids
        suffix = dual[lo + 1:]
        grouped = size > 1 and not support(d) & support(reduce(or_, suffix, 0))
        layers = [[]] if grouped else [[0]]  # layers[t]: combinations with t nonzero free coefficients
        for e in reversed(suffix):
            ms = multiples(e)[1:]
            if used & e & -e:  # any coefficient: every layer grows
                for layer in layers:
                    layer += [s ^ m for m in ms for s in layer]
                if grouped:
                    layers[0] += [ms[c] for c in opening]
            else:  # a nonzero coefficient moves t up one
                if len(layers) <= cap:
                    layers.append([])
                for t in range(len(layers) - 1, 0, -1):
                    layers[t] += [s ^ m for m in ms for s in layers[t - 1]]
                if grouped and cap:
                    layers[1] += [ms[c] for c in opening]
        if grouped:
            layers.append([0])
        leaves = 0
        for t, layer in enumerate(layers):
            for s in layer:
                r = d ^ s
                if not iso(r):
                    continue
                got = 1, None  # a leaf
                if need:
                    child_used = used | support(r)
                    j, a = _meet_row(pair, suffix, r)
                    if j < 0:
                        child = suffix
                    elif t == cap and not child_used & suffix[j] & -suffix[j]:
                        continue
                    else:
                        child = _eliminate(field, ops, suffix, r, j, a)
                    key = (tuple(child), child_used, depth)
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = grow(child, child_used, depth + 1)
                leaves += got[0]
                if with_codes:
                    kids.append((r, got[1]))
        if grouped:  # each kid but the zero's stands for its |U| rows
            leaves = size * leaves - (size - 1) * (got[0] if iso(d) else 0)
            if with_codes:
                kids = [(d ^ us[u], below) for r, below in kids
                        for us in (multiples(r ^ d),) for u in (units if r != d else (1,))]
        if not need:
            nodes += leaves
            if nodes > state_limit:
                raise EnumerationBudgetExceeded(over)
        if with_codes:
            # sorted once, by the text of the kid's row (the one-row code's
            # dump), before the state is memoized.  Every code listed has one
            # header and k rows of n digits, and the leaves below a kid all
            # carry its row here, so a depth-first read of the sorted kids
            # lists the codes in text order, under every parent of the state
            kids.sort(key=lambda kid: LinearCode(field, n, kid[:1]).dump())
        return leaves, kids

    def expand(kids: list) -> list:
        # the rows of every leaf below a node, read back along its sorted kids
        return [(r,) + rows for r, below in kids for rows in ([()] if below is None else expand(below))]

    count, kids = grow(kernel_basis(field, constraints, n), 0, 1)
    if not with_codes:
        return count, None
    return count, [LinearCode(field, n, rows) for rows in expand(kids)]


# ---------------------------------------------------------------------------
# sampling


#: draws the sampler makes for one row before it gives up
_MAX_DRAWS = 100_000


def sample_self_dual(q: int, n: int, seed: int) -> LinearCode:
    """A uniformly random self-dual code, bit-exact reproducible per seed.

    Grows the code by repeatedly drawing a uniform element of the current
    dual until it is isotropic and outside the current span, and meets the
    dual with it.  The dual is exactly span(rows)^perp, so a draw w lies
    outside the span iff some dual row pairs nonzero with it, the row
    `_meet_row` finds and `_eliminate` removes (the zero word meets none);
    no list of rows is kept.  Once the code is self-dual its dual is the
    code itself, and its RREF is read back as that dual's dual.  A draw takes
    one rng.randrange(q) per row of the dual's reduced echelon basis pivoted
    on each row's last nonzero column, in ascending pivot order; that basis
    is unique, so the draws are fixed by the seed.  random.Random seeds
    from |seed|, so a negative seed would repeat its positive twin's code;
    it is refused.  A row that _MAX_DRAWS draws do not extend raises
    EnumerationBudgetExceeded.
    """
    field = field_for(q)
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ops = field.packed_ops(n)
    multiples, pair, iso = ops.multiples, ops.pair, ops.isotropic
    rng = random.Random(seed)
    # the dual of the draws accepted so far, held last pivot first, the
    # order in which _eliminate keeps it reduced
    dual = kernel_basis(field, (), n)[::-1]
    while len(dual) > n // 2:
        dual_multiples = [multiples(d) for d in reversed(dual)]
        for _ in range(_MAX_DRAWS):
            w = 0
            for md in dual_multiples:
                c = rng.randrange(q)
                if c:
                    w ^= md[c]
            if iso(w):
                j, a = _meet_row(pair, dual, w)
                if j >= 0:
                    break
        else:
            raise EnumerationBudgetExceeded(f"sampler drew {_MAX_DRAWS} vectors without extending the code")
        dual = _eliminate(field, ops, dual, w, j, a)
    # self-dual: the last dual is the code itself
    return LinearCode(field, n, tuple(kernel_basis(field, dual, n)))
