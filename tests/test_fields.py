import itertools
import random

import pytest
from hypothesis import given, strategies as st

from sdgqc.fields import (
    ALPHA,
    GF2,
    GF4,
    GF16,
    OMEGA,
    field_for,
    norm_one,
)


def test_multiplication_examples():
    assert GF4.mul(OMEGA, OMEGA) == 0x3  # w^2 = w + 1
    assert GF16.mul(ALPHA, GF16.pow(ALPHA, 3)) == 0xF  # a^4 = a^3+a^2+a+1
    assert GF16.pow(ALPHA, 5) == 1


def test_alpha_has_multiplicative_order_five():
    assert ALPHA != 1
    powers = {GF16.pow(ALPHA, e) for e in range(1, 5)}
    assert 1 not in powers
    assert GF16.pow(ALPHA, 5) == 1


def test_conjugation():
    assert GF4.conjugate(OMEGA) == 0x3
    assert GF16.conjugate(1) == 1
    for a in range(GF16.q):
        assert GF16.conjugate(GF16.conjugate(a)) == a
    with pytest.raises(ValueError):
        GF2.conjugate(1)
    assert norm_one(GF2) == ((1,), (1,))  # no conjugation: groups of one


def test_conjugation_fixes_the_right_subfield():
    fixed16 = {a for a in range(GF16.q) if GF16.conjugate(a) == a}
    assert len(fixed16) == 4  # GF(4) inside GF(16)
    fixed4 = {a for a in range(GF4.q) if GF4.conjugate(a) == a}
    assert fixed4 == {0, 1}


def test_inverses():
    assert GF2.inverse(1) == 1
    assert GF4.inverse(OMEGA) == 0x3
    for f in (GF4, GF16):
        for a in range(1, f.q):
            assert f.mul(a, f.inverse(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inverse(0)


@pytest.mark.parametrize("f", [GF4, GF16])
def test_field_axioms_exhaustive(f):
    els = range(f.q)
    for a, b in itertools.product(els, els):
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(els, els, els):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("f", [GF4, GF16])
def test_conjugate_is_an_automorphism(f):
    for a in range(f.q):
        for b in range(f.q):
            assert f.conjugate(f.mul(a, b)) == f.mul(f.conjugate(a), f.conjugate(b))
            assert f.conjugate(a ^ b) == f.conjugate(a) ^ f.conjugate(b)


def test_field_for():
    assert field_for(4) is GF4
    with pytest.raises(ValueError):
        field_for(8)


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13])
def test_isotropic_matches_pair(q, n):
    # the plane-parity test against the general inner product pair(v, v)
    f = field_for(q)
    ops = f.packed_ops(n)
    pair, isotropic = ops.pair, ops.isotropic
    rng = random.Random(q * 100 + n)
    words = [rng.getrandbits(f.bits * n) for _ in range(2000)]
    if q ** n <= 4096:
        words += range(q ** n)
    hits = 0
    for v in words:
        assert isotropic(v) == (pair(v, v) == 0), v
        hits += pair(v, v) == 0
    assert 0 < hits < len(words)


@given(st.sampled_from([2, 4, 16]), st.integers(1, 40), st.data())
def test_isotropic_property(q, n, data):
    f = field_for(q)
    v = data.draw(st.integers(0, (1 << f.bits * n) - 1))
    ops = f.packed_ops(n)
    assert ops.isotropic(v) == (ops.pair(v, v) == 0)


def _pair_by_definition(f, n, u, v):
    # sum of u_i * conj(v_i) (u_i * v_i over GF(2)), one symbol at a time
    m = f.q - 1
    acc = 0
    for i in range(n):
        a, b = u >> i * f.bits & m, v >> i * f.bits & m
        acc ^= f.mul(a, b if f.q == 2 else f.conjugate(b))
    return acc


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13])
def test_pair_matches_definition(q, n):
    f = field_for(q)
    pair = f.packed_ops(n).pair
    rng = random.Random(q * 1000 + n)
    size = 1 << f.bits * n
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(2000)]
    if q ** (2 * n) <= 4096:
        pairs += itertools.product(range(size), repeat=2)
    values = set()
    for u, v in pairs:
        want = _pair_by_definition(f, n, u, v)
        assert pair(u, v) == want, (u, v)
        values.add(want)
    assert values == set(range(q))  # every value of the form is reached


@given(st.sampled_from([2, 4, 16]), st.integers(1, 40), st.data())
def test_pair_property(q, n, data):
    f = field_for(q)
    u, v = (data.draw(st.integers(0, (1 << f.bits * n) - 1)) for _ in range(2))
    assert f.packed_ops(n).pair(u, v) == _pair_by_definition(f, n, u, v)


_MODULUS = {2: 0b10, 4: 0b111, 16: 0b11111}


def _scale_by_definition(f, n, c, v):
    # c*v one symbol at a time: the carry-less product of the bit patterns
    # as polynomials over GF(2), reduced mod the field's modulus; it shares
    # no code with the field (whose mul table comes from multiples)
    m, b = f.q - 1, f.bits
    out = 0
    for i in range(n):
        a, prod = v >> i * b & m, 0
        for j in range(b):
            if c >> j & 1:
                prod ^= a << j
        for j in range(2 * b - 2, b - 1, -1):
            if prod >> j & 1:
                prod ^= _MODULUS[f.q] << j - b
        out |= prod << i * b
    return out


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_multiples_match_scale(q, n):
    f = field_for(q)
    multiples = f.packed_ops(n).multiples
    rng = random.Random(q + n)
    for v in [0, (1 << f.bits * n) - 1] + [rng.getrandbits(f.bits * n) for _ in range(200)]:
        mv = multiples(v)
        assert len(mv) == q
        assert all(mv[c] == _scale_by_definition(f, n, c, v) for c in range(q)), v


@given(st.sampled_from([2, 4, 16]), st.integers(1, 40), st.data())
def test_multiples_property(q, n, data):
    f = field_for(q)
    v = data.draw(st.integers(0, (1 << f.bits * n) - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.packed_ops(n).multiples(v)[c] == _scale_by_definition(f, n, c, v)


@pytest.mark.parametrize("f", [GF2, GF4, GF16])
def test_packed_ops_refuses_vectors_past_4096_bits(f):
    limit = 4096 // f.bits
    assert f.packed_ops(limit).pair(1, 1) == 1  # exactly 4,096 bits
    for n in (limit + 1, 10**6):
        with pytest.raises(ValueError, match=f"length {n} over GF\\({f.q}\\) takes {n * f.bits} bits, "
                                             "past the 4096-bit limit"):
            f.packed_ops(n)


def _norm_one(f):
    """U = {u : u*conj(u) = 1}, computed from mul and conjugate alone."""
    return {u for u in range(1, f.q) if f.mul(u, f.conjugate(u)) == 1}


@pytest.mark.parametrize("f, size", [(GF4, 3), (GF16, 5)])
def test_norm_one_units_and_the_fixed_field(f, size):
    # nonzero c = u * g for exactly one norm-one u and one nonzero g of the
    # fixed field (conj(g) = g): the fixed field is a transversal of U
    units = _norm_one(f)
    assert len(units) == size
    fixed = {g for g in range(1, f.q) if f.conjugate(g) == g}
    for c in range(1, f.q):
        assert sum(f.mul(u, g) == c for u in units for g in fixed) == 1, c
    # the census's table of both, ascending
    assert norm_one(f) == (tuple(sorted(units)), tuple(sorted(fixed)))


def _disjoint_words(f, n, rng):
    """(d, s, x): random packed words with d sharing no column with s or x."""
    d = s = x = 0
    for i in range(n):
        owner = rng.randrange(3)  # column i: d's, s's or neither's
        a, b = rng.randrange(1, f.q), rng.randrange(f.q)
        d |= (a if owner == 0 else 0) << i * f.bits
        s |= (a if owner == 1 else 0) << i * f.bits
        x |= (b if owner else 0) << i * f.bits
    return d, s, x


@pytest.mark.parametrize("f", [GF4, GF16])
@pytest.mark.parametrize("n", [2, 5, 12])
def test_norm_one_multiples_keep_isotropy_and_scale_pairs(f, n):
    # with d and s disjoint, d + u*s is isotropic iff d + s is, and a word
    # x disjoint from d pairs with d + u*s as conj(u) times with d + s, so
    # the census grows one subtree for the |U| candidate rows d + u*s
    ops = f.packed_ops(n)
    rng = random.Random(f.q * 100 + n)
    for _ in range(300):
        d, s, x = _disjoint_words(f, n, rng)
        ms = ops.multiples(s)
        for u in _norm_one(f):
            assert ops.isotropic(d ^ ms[u]) == ops.isotropic(d ^ s)
            assert ops.pair(x, d ^ ms[u]) == f.mul(f.conjugate(u), ops.pair(x, d ^ s))
