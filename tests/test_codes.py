import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sdgqc import census
from sdgqc.codes import (
    EUCLIDEAN,
    HERMITIAN,
    EnumerationBudgetExceeded,
    LinearCode,
    _meet,
    _meet_row,
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


@pytest.mark.parametrize("q", [2, 4, 16])
def test_enumeration_matches_coefficient_sums(q):
    # iter_packed, weight_tally and min_distance against the span listed
    # coefficient tuple by coefficient tuple, through Field.mul per symbol
    f = field_for(q)
    rng = random.Random(q * 7)
    kmax = 12 // f.bits  # q^k <= 4096
    for _ in range(12):
        n = rng.randrange(1, kmax + 4)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(1, kmax + 1))]
        code = LinearCode.from_rows(f, n, rows)
        words = list(code.iter_packed())
        assert len(words) == len(set(words)) == q ** code.k and words[0] == 0
        m = q - 1
        assert all(code.contains(tuple(w >> i * f.bits & m for i in range(n))) for w in words)
        tally: dict = {}
        span = set()
        for coeffs in itertools.product(range(q), repeat=code.k):
            word = [0] * n
            for c, row in zip(coeffs, code.rows):
                word = [s ^ f.mul(c, r) for s, r in zip(word, row)]
            span.add(tuple(word))
            w = sum(1 for s in word if s)
            tally[w] = tally.get(w, 0) + 1
        assert code.weight_tally() == tally
        # and contains refuses the words the listing does not reach
        outside = [v for v in (tuple(rng.randrange(q) for _ in range(n)) for _ in range(40)) if v not in span]
        assert outside or code.k == n
        assert not any(code.contains(v) for v in outside)
        if code.k:
            assert code.min_distance() == min(w for w in tally if w)


def _gauss_jordan(field, rows, n):
    # the textbook reduction over symbol tuples, through Field.mul and
    # Field.inverse only: per column, bring a row with a nonzero symbol
    # there up to the next pivot row, scale it to pivot symbol 1 and
    # clear the column in every other row
    rows = [list(r) for r in rows]
    top = 0
    for col in range(n):
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        inv = field.inverse(rows[top][col])
        rows[top] = [field.mul(inv, s) for s in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [s ^ field.mul(row[col], t) for s, t in zip(row, rows[top])]
        top += 1
    return tuple(tuple(r) for r in rows[:top])


@pytest.mark.parametrize("q", [2, 4, 16])
def test_from_rows_matches_gauss_jordan(q):
    # from_rows' RREF, the dual of the dual, against the reference on
    # random spans with dependent and zero rows mixed in, down to n = 0
    f = field_for(q)
    rng = random.Random(q * 13)
    for _ in range(150):
        n = rng.randrange(0, 9)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(0, 6))]
        for _ in range(rng.randrange(0, 3)):  # combinations of the rows so far
            combo = [0] * n
            for row in rows:
                c = rng.randrange(q)
                combo = [s ^ f.mul(c, r) for s, r in zip(combo, row)]
            rows.append(tuple(combo))
        rows += [(0,) * n] * rng.randrange(0, 2)
        rng.shuffle(rows)
        assert LinearCode.from_rows(f, n, rows).rows == _gauss_jordan(f, rows, n), (n, rows)


def test_enumeration_budget():
    rows = [tuple(1 if j == i else 0 for j in range(30)) for i in range(30)]
    big = LinearCode.from_rows(GF2, 30, rows)
    with pytest.raises(EnumerationBudgetExceeded):
        big.min_distance()
    # a budget refusal is a ValueError, like every other refusal
    assert issubclass(EnumerationBudgetExceeded, ValueError)


def test_contains():
    rep = LinearCode.from_rows(GF2, 2, [bits("11")])
    assert rep.contains(bits("11"))
    assert not rep.contains(bits("10"))
    for n in (2, 4, 6, 8):
        _, codes = census.census(2, n, with_codes=True)
        ones = (1,) * n
        assert all(c.contains(ones) for c in codes)


def _random_codeword(f, rng, rows, n):
    word = (0,) * n
    for r in rows:
        c = rng.randrange(f.q)
        word = tuple(x ^ f.mul(c, y) for x, y in zip(word, r))
    return word


@pytest.mark.parametrize("q", [2, 4, 16])
def test_contains_matches_the_dual(q):
    # v lies in C iff no row of C's dual pairs nonzero with v: checked on
    # random words, random codewords, near misses and every basis row of
    # random codes with 0 <= k <= n <= 8, the word packed here by hand
    f = field_for(q)
    rng = random.Random(40 + q)
    for _ in range(150):
        n = rng.randrange(9)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(n + 1))]
        code = LinearCode.from_rows(f, n, rows)
        pair = f.packed_ops(n).pair
        dual = kernel_basis(f, code.basis, n)
        words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)] + list(code.rows)
        for _ in range(4):
            word = list(_random_codeword(f, rng, code.rows, n))
            words.append(tuple(word))
            if n:
                word[rng.randrange(n)] ^= rng.randrange(1, q)
                words.append(tuple(word))
        for w in words:
            packed = sum(s << i * f.bits for i, s in enumerate(w))
            assert code.contains(w) == (not any(pair(d, packed) for d in dual)), (code.rows, w)
        assert all(code.contains(r) for r in code.rows)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_contains_and_from_rows_refuse_bad_words(q):
    f = field_for(q)
    code = LinearCode.from_rows(f, 3, [(1, 1, 0)])
    for word in [(1, 1), (1, 1, 0, 0), (0, q, 0), (0, -1, 0)]:
        with pytest.raises(ValueError):
            code.contains(word)
        with pytest.raises(ValueError):
            LinearCode.from_rows(f, 3, [(1, 1, 0), word])
    with pytest.raises(ValueError, match="row of length 2, expected 3"):
        LinearCode.from_rows(f, 3, [(1, 1)])
    # a row may be any iterable of symbols
    assert LinearCode.from_rows(f, 3, [iter((1, 1, 0))]) == code


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


@pytest.mark.parametrize("q", [2, 4, 16])
def test_loads_refuses_wide_codes_fast(q):
    # past 4,096 bits a length is refused before anything grows with it:
    # the unit vectors alone of n = 10^6 would take about 60 GB
    bits = q.bit_length() - 1
    for n in (4096 // bits + 1, 10**6):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="past the 4096-bit limit"):
            loads(f"sdgqc-code v1\nq {q}\nn {n}\nk 0\n")
        assert time.perf_counter() - t0 < 1.0
    # a row is packed only after the width is accepted: packing these
    # 10^6 symbols would take seconds, as the packed int grows with each
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="past the 4096-bit limit"):
        loads(f"sdgqc-code v1\nq {q}\nn {10**6}\nk 1\n{'1' * 10**6}\n")
    assert time.perf_counter() - t0 < 1.0


def test_loads_accepts_exactly_4096_bits():
    # the cheapest length at the limit, 1,024 symbols over GF(16): about 0.7 s
    c = loads("sdgqc-code v1\nq 16\nn 1024\nk 1\n" + "1" * 1024 + "\n")
    assert (c.n, c.k) == (1024, 1) and c.contains((5,) * 1024)


@st.composite
def small_codes(draw, q=None, n=None):
    """A code over GF(q) of length n, spanned by up to n random rows whose
    last z symbols are 0 for a drawn z, with the field's inner product.  A q
    not given is drawn from 2, 4 and 16, and an n not given from 1..8, with
    n = 1 about half the time."""
    q = q or draw(st.sampled_from([2, 4, 16]))
    n = n or draw(st.one_of(st.just(1), st.integers(1, 8)))
    z = draw(st.integers(0, n))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * (n - z), *[st.just(0)] * z), max_size=n))
    return LinearCode.from_rows(field_for(q), n, rows), EUCLIDEAN if q == 2 else HERMITIAN


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.data())
def test_text_format_roundtrip_property(code_inner, data):
    c, _ = code_inner
    text = c.dump()
    assert loads(text) == c
    # one hex digit per symbol, symbol 0 first
    assert text.splitlines()[4:] == ["".join(format(s, "x") for s in row) for row in c.rows]
    # codes of one field, length and dimension sort by their text as by their rows
    found = [c] + [o for o, _ in data.draw(st.lists(small_codes(c.field.q, c.n), max_size=8))]
    assert sorted(found, key=lambda o: (o.k, o.dump())) == sorted(found, key=lambda o: (o.k, o.rows))


@settings(max_examples=60, deadline=None)
@given(small_codes())
def test_dual_of_dual_property(code_inner):
    c, inner = code_inner
    assert c.dual(inner).dual(inner) == c


def test_loads_accepts_comments_and_rejects_garbage():
    text = "# a comment\nsdgqc-code v1\nq 2\nn 2\nk 1\n# another\n11\n"
    assert loads(text).rows == (bits("11"),)
    with pytest.raises(ValueError):
        loads("not a code file")
    with pytest.raises(ValueError):
        loads("sdgqc-code v1\nq 2\nn 2\nk 1\n13\n")
    with pytest.raises(ValueError):
        loads("sdgqc-code v1\nq 2\nn 2\nk 2\n11\n11\n")
    # a negative length or dimension is no code
    for header, key, value in (("n -2\nk 0", "n", -2), ("n 2\nk -1", "k", -1)):
        with pytest.raises(ValueError, match=f"^{key} must be nonnegative, got {value}$"):
            loads(f"sdgqc-code v1\nq 2\n{header}\n")


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
    ops = f.packed_ops(n)
    multiples, pair = ops.multiples, ops.pair
    root = kernel_basis(f, [pack(f, w, n) for w in constraints], n)
    assert _is_reduced(f, root) and len(root) == n - len(constraints)
    span = [0]
    for d in root if q ** len(root) <= 1 << 16 else ():
        span = [s ^ dc for dc in multiples(d) for s in span]
    children = [_meet(f, ops, root, r) for r in span if r and pair(r, r) == 0]
    assert all(_is_reduced(f, child) for child in children)
    rng = random.Random(q * 100 + n)
    for _ in range(200):
        dual = root
        while n - len(dual) != len(dual):  # until the dual is self-dual
            r = 0
            for d in dual:
                r ^= multiples(d)[rng.randrange(q)]
            # r extends the code iff it lies outside dual^perp
            if pair(r, r) == 0 and _meet_row(pair, dual, r)[0] >= 0:
                dual = _meet(f, ops, dual, r)
                assert _is_reduced(f, dual)
        assert len(dual) == n // 2


def _meet_all_rows(field, ops, dual, w):
    # the elimination _meet replaced: pair every row with w, eliminate the
    # last row not orthogonal to w from all the others
    vals = [ops.pair(row, w) for row in dual]
    j = len(vals) - 1
    while j >= 0 and not vals[j]:
        j -= 1
    if j < 0:
        return dual
    rj = ops.multiples(dual[j])[field.inverse(vals[j])]
    out = [row ^ ops.multiples(rj)[a] if a else row for row, a in zip(dual, vals)]
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
