import random

import pytest

from sdgqc import census
from sdgqc.codes import (
    EUCLIDEAN,
    HERMITIAN,
    EnumerationBudgetExceeded,
    LinearCode,
    _insert,
    _meet,
    extended_hamming_code,
    kernel_basis,
    loads,
    pack,
    rref,
)
from sdgqc.fields import GF2, GF4, GF16, field_for


def bits(s):
    return tuple(int(c) for c in s)


def test_from_rows_examples():
    c = LinearCode.from_rows(GF2, 2, [bits("11")])
    assert c.k == 1 and c.rows == (bits("11"),)
    c = LinearCode.from_rows(GF2, 4, [bits("1100"), bits("0011"), bits("1111")])
    assert c.k == 2
    c = LinearCode.from_rows(GF16, 2, [(1, 1)])
    assert c.k == 1


def test_from_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        LinearCode.from_rows(GF2, 3, [bits("11")])
    with pytest.raises(ValueError):
        LinearCode.from_rows(GF2, 2, [(0, 2)])


def test_canonical_form_equality():
    rng = random.Random(5)
    for q in (2, 4, 16):
        f = field_for(q)
        for _ in range(25):
            n = rng.randrange(2, 8)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
            a = LinearCode.from_rows(f, n, rows)
            # re-span with random row operations
            mixed = list(rows)
            for _ in range(5):
                i, j = rng.randrange(3), rng.randrange(3)
                c = rng.randrange(1, q)
                if i != j:
                    mixed[i] = tuple(x ^ f.mul(c, y) for x, y in zip(mixed[i], mixed[j]))
            b = LinearCode.from_rows(f, n, mixed + rows)
            assert a == b and hash(a) == hash(b)


def test_dual_examples():
    rep = LinearCode.from_rows(GF2, 2, [bits("11")])
    assert rep.dual(EUCLIDEAN) == rep
    full = LinearCode.from_rows(GF2, 3, [bits("100"), bits("010"), bits("001")])
    assert full.dual(EUCLIDEAN).k == 0
    herm = LinearCode.from_rows(GF16, 2, [(1, 1)])
    assert herm.dual(HERMITIAN) == herm


def test_dual_validates_pairing():
    c = LinearCode.from_rows(GF2, 2, [bits("11")])
    with pytest.raises(ValueError):
        c.dual(HERMITIAN)
    h = LinearCode.from_rows(GF4, 2, [(1, 1)])
    with pytest.raises(ValueError):
        h.dual(EUCLIDEAN)


def test_dual_dual_roundtrip_and_dimension():
    rng = random.Random(11)
    for q, inner in [(2, EUCLIDEAN), (4, HERMITIAN), (16, HERMITIAN)]:
        f = field_for(q)
        for trial in range(100):
            n = rng.randrange(1, 13)
            k = rng.randrange(0, n + 1)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
            c = LinearCode.from_rows(f, n, rows)
            d = c.dual(inner)
            assert c.k + d.k == n
            assert d.dual(inner) == c


def test_is_self_dual():
    rep = LinearCode.from_rows(GF2, 2, [bits("11")])
    assert rep.is_self_dual(EUCLIDEAN)
    c = LinearCode.from_rows(GF2, 4, [bits("1100"), bits("1010")])
    assert not c.is_self_dual(EUCLIDEAN)
    count = 0
    for a in range(1, 16):
        c = LinearCode.from_rows(GF16, 2, [(1, a)])
        if c.is_self_dual(HERMITIAN):
            count += 1
            assert GF16.pow(a, 5) == 1
    assert count == 5


def test_is_type_ii():
    assert extended_hamming_code().is_type_ii()
    assert not LinearCode.from_rows(GF2, 2, [bits("11")]).is_type_ii()
    c = LinearCode.from_rows(GF2, 4, [bits("1100"), bits("0011")])
    assert not c.is_type_ii()
    with pytest.raises(ValueError):
        LinearCode.from_rows(GF4, 2, [(1, 1)]).is_type_ii()


def test_type_ii_generator_criterion_matches_word_check():
    # every censused self-dual code with n <= 8: compare against the
    # all-codeword doubly-even check
    for n in (2, 4, 6, 8):
        _, codes = census.census(2, n, with_codes=True)
        for c in codes:
            by_words = all(w % 4 == 0 for w in c.weight_tally())
            assert c.is_type_ii() == by_words


def test_min_distance_and_tally():
    rep = LinearCode.from_rows(GF2, 2, [bits("11")])
    assert rep.min_distance() == 2
    h = extended_hamming_code()
    assert h.min_distance() == 4
    assert h.weight_tally() == {0: 1, 4: 14, 8: 1}
    full2 = LinearCode.from_rows(GF2, 2, [bits("10"), bits("01")])
    assert full2.weight_tally() == {0: 1, 1: 2, 2: 1}
    with pytest.raises(ValueError):
        LinearCode.zero(GF2, 4).min_distance()


def test_enumeration_budget():
    rows = [tuple(1 if j == i else 0 for j in range(30)) for i in range(30)]
    big = LinearCode.from_rows(GF2, 30, rows)
    with pytest.raises(EnumerationBudgetExceeded):
        big.min_distance(budget=2**24)


def test_contains():
    rep = LinearCode.from_rows(GF2, 2, [bits("11")])
    assert rep.contains(bits("11"))
    assert not rep.contains(bits("10"))
    for n in (2, 4, 6, 8):
        _, codes = census.census(2, n, with_codes=True)
        ones = (1,) * n
        assert all(c.contains(ones) for c in codes)


def test_self_dual_weights_are_even():
    for n in (2, 4, 6, 8):
        _, codes = census.census(2, n, with_codes=True)
        for c in codes:
            assert all(w % 2 == 0 for w in c.weight_tally())


def test_text_format_roundtrip():
    rng = random.Random(3)
    for q in (2, 4, 16):
        f = field_for(q)
        for _ in range(10):
            n = rng.randrange(1, 9)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
            c = LinearCode.from_rows(f, n, rows)
            assert loads(c.dump()) == c


def test_loads_accepts_comments_and_rejects_garbage():
    text = "# a comment\nsdgqc-code v1\nq 2\nn 2\nk 1\n# another\n11\n"
    assert loads(text).rows == (bits("11"),)
    with pytest.raises(ValueError):
        loads("not a code file")
    with pytest.raises(ValueError):
        loads("sdgqc-code v1\nq 2\nn 2\nk 1\n13\n")
    with pytest.raises(ValueError):
        loads("sdgqc-code v1\nq 2\nn 2\nk 2\n11\n11\n")


def _is_reduced(field, rows):
    # RREF with pivots ascending, pivot symbols 1 and every other row 0 there
    m, b = field.q - 1, field.bits
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    pivots = [t - t % b for t in pivots]
    return all(rows) and pivots == sorted(set(pivots)) and all(
        (r >> t & m) == (i == k) for k, t in enumerate(pivots) for i, r in enumerate(rows)
    )


@pytest.mark.parametrize(
    "q, n, constraints",
    [(16, 4, []), (2, 8, [(1,) * 8]), (16, 6, [(1, 1, 0, 0, 0, 0)]), (4, 4, [(1, 2, 3, 1)])],
)
def test_meet_keeps_rref_reduced(q, n, constraints):
    # The census reads a candidate's coefficients off the dual's pivot
    # columns, so the root dual and every dual _meet narrows it to must be
    # reduced.  Check every child of a root whose span is small enough to
    # list, and random descents from each root to a self-dual code.
    f = field_for(q)
    ops = scale, pair, _ = f.packed_ops(n)
    root = kernel_basis(f, [pack(f, w) for w in constraints], n)
    assert _is_reduced(f, root) and len(root) == n - len(constraints)
    span = [0]
    for d in root if q ** len(root) <= 1 << 16 else ():
        span = [s ^ scale(c, d) for c in range(q) for s in span]
    children = [_meet(f, ops, root, r) for r in span if r and pair(r, r) == 0]
    assert all(_is_reduced(f, child) for child in children)
    rng = random.Random(q * 100 + n)
    for _ in range(200):
        dual, rows = root, []
        while len(rows) < len(dual):  # until rows span a self-dual code
            r = 0
            for d in dual:
                r ^= scale(rng.randrange(q), d)
            if r and pair(r, r) == 0 and _insert(f, scale, rows, r):
                dual = _meet(f, ops, dual, r)
                assert _is_reduced(f, dual)
        assert len(rows) == n // 2


def _meet_all_rows(field, ops, dual, w):
    # the elimination _meet replaced: pair every row with w, eliminate the
    # last row not orthogonal to w from all the others
    scale, pair, _ = ops
    vals = [pair(row, w) for row in dual]
    j = len(vals) - 1
    while j >= 0 and not vals[j]:
        j -= 1
    if j < 0:
        return dual
    rj = scale(field.inverse(vals[j]), dual[j])
    out = [row ^ scale(a, rj) if a else row for row, a in zip(dual, vals)]
    del out[j]
    return out


@pytest.mark.parametrize("q", [2, 4, 16])
def test_meet_matches_all_rows_elimination(q):
    # on random reduced echelon bases in both orders the census and the
    # sampler hold: ascending first nonzero column, and (reversing the
    # coordinates) descending last one
    f = field_for(q)
    b, m = f.bits, q - 1
    rng = random.Random(q)
    for n in (1, 2, 5, 9):
        ops = f.packed_ops(n)

        def reverse(v):
            return sum((v >> i * b & m) << (n - 1 - i) * b for i in range(n))

        for _ in range(60):
            rows = [rng.getrandbits(b * n) for _ in range(rng.randrange(1, n + 1))]
            ascending = rref(f, rows, n)
            for basis in (ascending, [reverse(r) for r in ascending]):
                for _ in range(4):
                    w = rng.getrandbits(b * n)
                    assert _meet(f, ops, basis, w) == _meet_all_rows(f, ops, basis, w), (basis, w)
                # a w orthogonal to every row leaves the dual as it is
                for w in [0] + kernel_basis(f, basis, n):
                    assert _meet(f, ops, basis, w) == basis, (basis, w)
