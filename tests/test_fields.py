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
    compose_binary,
    expand_binary,
    field_for,
)


def test_addition_is_xor():
    assert GF16.add(0x3, 0x5) == 0x6
    assert GF4.add(OMEGA, OMEGA) == 0
    assert GF2.add(1, 1) == 0


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
    for a in GF16.elements():
        assert GF16.conjugate(GF16.conjugate(a)) == a
    with pytest.raises(ValueError):
        GF2.conjugate(1)


def test_conjugation_fixes_the_right_subfield():
    fixed16 = {a for a in GF16.elements() if GF16.conjugate(a) == a}
    assert len(fixed16) == 4  # GF(4) inside GF(16)
    fixed4 = {a for a in GF4.elements() if GF4.conjugate(a) == a}
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
    els = list(f.elements())
    for a, b in itertools.product(els, els):
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
    for a, b, c in itertools.product(els, els, els):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("f", [GF4, GF16])
def test_conjugate_is_an_automorphism(f):
    for a in f.elements():
        for b in f.elements():
            assert f.conjugate(f.mul(a, b)) == f.mul(f.conjugate(a), f.conjugate(b))
            assert f.conjugate(f.add(a, b)) == f.add(f.conjugate(a), f.conjugate(b))


def test_expand_compose_binary():
    assert expand_binary(0x0) == (0, 0, 0, 0)
    assert expand_binary(ALPHA) == (0, 1, 0, 0)
    for a in GF16.elements():
        assert compose_binary(expand_binary(a)) == a


def test_field_for():
    assert field_for(4) is GF4
    with pytest.raises(ValueError):
        field_for(8)


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13])
def test_isotropic_matches_pair(q, n):
    # the plane-parity test against the general inner product pair(v, v)
    f = field_for(q)
    pair = f.packed_ops(n)[1]
    isotropic = f.isotropic(n)
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
    assert f.isotropic(n)(v) == (f.packed_ops(n)[1](v, v) == 0)


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
    pair = f.packed_ops(n)[1]
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
    assert f.packed_ops(n)[1](u, v) == _pair_by_definition(f, n, u, v)


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_multiples_match_scale(q, n):
    f = field_for(q)
    scale, multiples = f.packed_ops(n)[0], f.multiples(n)
    rng = random.Random(q + n)
    for v in [0, (1 << f.bits * n) - 1] + [rng.getrandbits(f.bits * n) for _ in range(200)]:
        mv = multiples(v)
        assert len(mv) == q
        assert all(mv[c] == scale(c, v) for c in range(q)), v
