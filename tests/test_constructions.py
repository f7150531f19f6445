import random

import pytest
from hypothesis import given, settings, strategies as st

from sdgqc import census
from sdgqc.codes import EUCLIDEAN, HERMITIAN, LinearCode, extended_hamming_code
from sdgqc.constructions import (
    block_rotate,
    crt_components,
    cubic_code,
    cubic_map,
    deinterleave,
    direct_sum,
    direct_sum_gqc,
    interleave,
    is_gqc_invariant,
    quintic_code,
    quintic_map,
    section_shift,
)
from sdgqc.fields import GF2, GF4, GF16, Field, field_for


def bits(s):
    return tuple(int(c) for c in s)


def vec_add(u, v):
    # addition is XOR of encodings in every supported field
    return tuple(a ^ b for a, b in zip(u, v))


def rand_vec(rng, q, n):
    return tuple(rng.randrange(q) for _ in range(n))


def test_cubic_map_examples():
    assert cubic_map(bits("11"), (0, 0)) == bits("111111")
    # s = (1, w): a = 10, b = 01
    assert cubic_map(bits("00"), (1, 2)) == bits("100111")


def test_cubic_map_is_linear():
    rng = random.Random(1)
    for _ in range(100):
        ell = rng.randrange(1, 7)
        x, xp = rand_vec(rng, 2, ell), rand_vec(rng, 2, ell)
        s, sp = rand_vec(rng, 4, ell), rand_vec(rng, 4, ell)
        lhs = vec_add(cubic_map(x, s), cubic_map(xp, sp))
        assert lhs == cubic_map(vec_add(x, xp), vec_add(s, sp))


#: cubic_map((x,), (s,)) for x = 0, 1 (outer) and s = 0..3 (inner): with
#: s = a + b*w the blocks are (x+a, x+b, x+a+b)
CUBIC_IMAGES = (
    (
        (0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0),
    ),
    (
        (1, 1, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1),
    ),
)

#: quintic_map((x,), (s,)) for x = 0, 1 (outer) and s = 0..15 (inner): with
#: s = a0 + a1*A + a2*A^2 + a3*A^3 the blocks are
#: (x+a0, x+a0+a1, x+a1+a2, x+a2+a3, x+a3)
QUINTIC_IMAGES = (
    (
        (0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0),
        (0, 0, 1, 1, 0), (1, 1, 1, 1, 0), (0, 1, 0, 1, 0), (1, 0, 0, 1, 0),
        (0, 0, 0, 1, 1), (1, 1, 0, 1, 1), (0, 1, 1, 1, 1), (1, 0, 1, 1, 1),
        (0, 0, 1, 0, 1), (1, 1, 1, 0, 1), (0, 1, 0, 0, 1), (1, 0, 0, 0, 1),
    ),
    (
        (1, 1, 1, 1, 1), (0, 0, 1, 1, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1),
        (1, 1, 0, 0, 1), (0, 0, 0, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0, 1),
        (1, 1, 1, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
        (1, 1, 0, 1, 0), (0, 0, 0, 1, 0), (1, 0, 1, 1, 0), (0, 1, 1, 1, 0),
    ),
)


@pytest.mark.parametrize("phi, images", [(cubic_map, CUBIC_IMAGES), (quintic_map, QUINTIC_IMAGES)])
def test_map_single_coordinate_images(phi, images):
    # every image of one coordinate, and each placed in its own position of
    # every block at longer lengths: with linearity this fixes the map
    for x, row in enumerate(images):
        for s, image in enumerate(row):
            assert phi((x,), (s,)) == image
            for ell in (2, 3, 4):
                for i in range(ell):
                    unit = lambda c: (0,) * i + (c,) + (0,) * (ell - 1 - i)
                    want = sum((unit(b) for b in image), ())
                    assert phi(unit(x), unit(s)) == want


def test_quintic_map_is_linear():
    rng = random.Random(5)
    for _ in range(100):
        ell = rng.randrange(1, 7)
        x, xp = rand_vec(rng, 2, ell), rand_vec(rng, 2, ell)
        s, sp = rand_vec(rng, 16, ell), rand_vec(rng, 16, ell)
        lhs = vec_add(quintic_map(x, s), quintic_map(xp, sp))
        assert lhs == quintic_map(vec_add(x, xp), vec_add(s, sp))


def test_quintic_map_examples():
    assert quintic_map((0,), (1,)) == (1, 1, 0, 0, 0)
    assert quintic_map((1,), (0,)) == (1, 1, 1, 1, 1)


def test_quintic_blocks_sum_to_x():
    rng = random.Random(2)
    for _ in range(100):
        ell = rng.randrange(1, 7)
        x = rand_vec(rng, 2, ell)
        s = rand_vec(rng, 16, ell)
        out = quintic_map(x, s)
        acc = (0,) * ell
        for j in range(5):
            acc = vec_add(acc, out[j * ell : (j + 1) * ell])
        assert acc == x


def test_map_length_mismatch():
    with pytest.raises(ValueError):
        cubic_map((0, 1), (1,))
    with pytest.raises(ValueError):
        quintic_map((0,), (1, 2))


def test_cubic_code_example():
    c1 = LinearCode.from_rows(GF2, 2, [bits("11")])
    c2 = LinearCode.from_rows(GF4, 2, [(1, 1)])
    c = cubic_code(c1, c2)
    assert (c.n, c.k) == (6, 3)
    # direct enumeration of the 8 images
    assert c.weight_tally() == {0: 1, 2: 3, 4: 3, 6: 1}
    assert c.min_distance() == 2 and c.contains(bits("001100"))


def test_cubic_code_of_zero_codes_is_zero():
    c = cubic_code(LinearCode.zero(GF2, 3), LinearCode.zero(GF4, 3))
    assert c.k == 0


def test_cubic_code_rejects_wrong_field():
    c1 = LinearCode.from_rows(GF2, 2, [bits("11")])
    c16 = LinearCode.from_rows(GF16, 2, [(1, 1)])
    with pytest.raises(ValueError):
        cubic_code(c1, c16)


def test_quintic_code_example():
    c1 = LinearCode.from_rows(GF2, 2, [bits("11")])
    c2 = LinearCode.from_rows(GF16, 2, [(1, 1)])
    c = quintic_code(c1, c2)
    assert (c.n, c.k) == (10, 5)
    assert c.min_distance() == 2
    # witness: s with expansion (1,0,1,0) gives blocks (1,1,1,1,0)
    w = quintic_map(bits("11"), (0x5, 0x5))
    assert sum(w) == 2 and c.contains(w)


def test_image_over_an_equal_field():
    # a field is known by its size: a code over a second Field(q) instance
    # has the same image as one over the package's own
    c1 = LinearCode.from_rows(GF2, 2, [bits("11")])
    for build, field, row in ((cubic_code, GF4, (1, 2)), (quintic_code, GF16, (1, 5))):
        twin = Field(field.q)
        assert twin is not field
        got = build(c1, LinearCode.from_rows(twin, 2, [row]))
        assert got == build(c1, LinearCode.from_rows(field, 2, [row]))


def test_quintic_code_with_zero_gf16_component():
    c1 = LinearCode.from_rows(GF2, 2, [bits("11")])
    c = quintic_code(c1, LinearCode.zero(GF16, 2))
    assert set(c.weight_tally()) == {0, 10}  # 5-fold repetition of c1


def test_dimension_formulas():
    rng = random.Random(3)
    for _ in range(20):
        ell = rng.randrange(1, 5)
        c1 = LinearCode.from_rows(GF2, ell, [rand_vec(rng, 2, ell) for _ in range(2)])
        c4 = LinearCode.from_rows(GF4, ell, [rand_vec(rng, 4, ell) for _ in range(2)])
        c16 = LinearCode.from_rows(GF16, ell, [rand_vec(rng, 16, ell) for _ in range(2)])
        assert cubic_code(c1, c4).k == c1.k + 2 * c4.k
        assert quintic_code(c1, c16).k == c1.k + 4 * c16.k


def test_crt_identity():
    rng = random.Random(4)
    scale = lambda s: tuple(GF16.mul(0x3, si) for si in s)  # 1 + alpha
    for _ in range(100):
        ell = rng.randrange(1, 7)
        x = rand_vec(rng, 2, ell)
        s = rand_vec(rng, 16, ell)
        assert crt_components(quintic_map(x, s)) == (x, scale(s))
    assert crt_components((0,) * 10) == ((0, 0), (0, 0))
    assert crt_components((1, 1, 1, 1, 1)) == ((1,), (0,))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda ell: st.tuples(st.tuples(*[st.integers(0, 1)] * ell), st.tuples(*[st.integers(0, 15)] * ell))
))
def test_crt_property(xs):
    x, s = xs
    assert crt_components(quintic_map(x, s)) == (x, tuple(GF16.mul(0x3, si) for si in s))


@st.composite
def code_pairs(draw):
    """Two random codes over one of GF(2), GF(4), GF(16), of lengths <= 6."""
    q = draw(st.sampled_from([2, 4, 16]))
    out = []
    for _ in range(2):
        n = draw(st.integers(1, 6))
        rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=n))
        out.append(LinearCode.from_rows(field_for(q), n, rows))
    return out


@settings(max_examples=100, deadline=None)
@given(code_pairs())
def test_direct_sum_property(pair):
    # against the padded-tuple construction: a's rows then b's, re-reduced
    a, b = pair
    rows = [r + (0,) * b.n for r in a.rows] + [(0,) * a.n + r for r in b.rows]
    assert direct_sum(a, b) == LinearCode.from_rows(a.field, a.n + b.n, rows)


def test_block_rotate():
    assert block_rotate(bits("100111"), 3) == bits("111001")
    v = bits("1011001")
    out = v
    for _ in range(7):
        out = block_rotate(out, 7)
    assert out == v
    with pytest.raises(ValueError):
        block_rotate(bits("101"), 2)


def test_block_rotate_preserves_constructed_codes():
    rng = random.Random(6)
    for _ in range(20):
        c1 = census.sample_self_dual(2, 4, rng.getrandbits(63))
        c4 = census.sample_self_dual(4, 4, rng.getrandbits(63))
        c16 = census.sample_self_dual(16, 4, rng.getrandbits(63))
        cc = cubic_code(c1, c4)
        qc = quintic_code(c1, c16)
        for code, b in [(cc, 3), (qc, 5)]:
            for row in code.rows:
                assert code.contains(block_rotate(row, b))


def test_interleave():
    assert interleave(tuple(range(6)), 2, 3) == (0, 2, 4, 1, 3, 5)
    rng = random.Random(7)
    for _ in range(30):
        ell, m = rng.randrange(1, 6), rng.randrange(1, 6)
        v = rand_vec(rng, 2, ell * m)
        assert deinterleave(interleave(v, ell, m), ell, m) == v


def test_gqc_invariance():
    # any cyclic code is GQC with the one-section profile
    cyc = LinearCode.from_rows(GF2, 4, [bits("1100"), bits("0110"), bits("0011")])
    assert is_gqc_invariant(cyc, (4,))
    assert not is_gqc_invariant(LinearCode.from_rows(GF2, 4, [bits("1000")]), (4,))
    rng = random.Random(8)
    for ell in (2, 4):
        c1 = census.sample_self_dual(2, ell, rng.getrandbits(63))
        c4 = census.sample_self_dual(4, ell, rng.getrandbits(63))
        cc = cubic_code(c1, c4)
        rows = [interleave(r, ell, 3) for r in cc.rows]
        icc = LinearCode.from_rows(GF2, cc.n, rows)
        assert is_gqc_invariant(icc, (3,) * ell)


def _random_profile(rng, n):
    profile = []
    while n:
        profile.append(rng.randrange(1, n + 1))
        n -= profile[-1]
    return tuple(profile)


def _shifted_code(code, profile):
    # the span of the shifted basis rows: the code's image under the shift
    shifted = [section_shift(r, profile) for r in code.rows]
    return LinearCode.from_rows(code.field, code.n, shifted)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_gqc_invariance_matches_the_shifted_span(q):
    # on random codes, and on the span of a random word's shift orbit,
    # which is invariant by construction
    f = field_for(q)
    rng = random.Random(50 + q)
    seen = set()
    for _ in range(150):
        n = rng.randrange(9)
        profile = _random_profile(rng, n)
        rows = [rand_vec(rng, q, n) for _ in range(rng.randrange(n + 1))]
        orbit = [rand_vec(rng, q, n)]
        for _ in range(max(profile, default=1) - 1):
            orbit.append(section_shift(orbit[-1], profile))
        for code in (LinearCode.from_rows(f, n, rows), LinearCode.from_rows(f, n, orbit)):
            got = is_gqc_invariant(code, profile)
            assert got == (_shifted_code(code, profile) == code), (code.rows, profile)
            seen.add(got)
    assert seen == {False, True}


def test_gqc_invariance_of_interleaved_images():
    rng = random.Random(12)
    for ell in (1, 2, 3, 4):
        c1 = LinearCode.from_rows(GF2, ell, [rand_vec(rng, 2, ell) for _ in range(rng.randrange(ell + 1))])
        c4 = LinearCode.from_rows(GF4, ell, [rand_vec(rng, 4, ell) for _ in range(rng.randrange(ell + 1))])
        c16 = LinearCode.from_rows(GF16, ell, [rand_vec(rng, 16, ell) for _ in range(rng.randrange(ell + 1))])
        for code, m in ((cubic_code(c1, c4), 3), (quintic_code(c1, c16), 5)):
            icode = LinearCode.from_rows(GF2, code.n, [interleave(r, ell, m) for r in code.rows])
            profile = (m,) * ell
            assert is_gqc_invariant(icode, profile)
            assert _shifted_code(icode, profile) == icode
            # in block order the answer may go either way; it still matches
            assert is_gqc_invariant(code, profile) == (_shifted_code(code, profile) == code)


def test_section_shift_refuses_empty_and_negative_sections():
    assert section_shift(bits("101"), (1, 2)) == bits("110")
    # (4, -1) sums to the length; (0, 3) would index an empty section
    for v, profile in ((bits("101"), (0, 3)), (bits("101"), (4, -1)), (bits("1010"), (2, 0, 2))):
        with pytest.raises(ValueError, match="at least 1"):
            section_shift(v, profile)
    code = LinearCode.from_rows(GF2, 3, [bits("111")])
    for c in (code, LinearCode.zero(GF2, 3)):
        for profile in ((0, 3), (4, -1)):
            with pytest.raises(ValueError, match="at least 1"):
                is_gqc_invariant(c, profile)
    with pytest.raises(ValueError, match="code length"):
        is_gqc_invariant(code, (1, 1))


def _interleaved(code, ell, m):
    rows = [interleave(r, ell, m) for r in code.rows]
    return LinearCode.from_rows(GF2, code.n, rows)


def test_direct_sum_gqc():
    rng = random.Random(9)
    for ell in (2, 4):
        a = _interleaved(
            cubic_code(
                census.sample_self_dual(2, ell, rng.getrandbits(63)),
                census.sample_self_dual(4, ell, rng.getrandbits(63)),
            ),
            ell,
            3,
        )
        b = _interleaved(
            quintic_code(
                census.sample_self_dual(2, ell, rng.getrandbits(63)),
                census.sample_self_dual(16, ell, rng.getrandbits(63)),
            ),
            ell,
            5,
        )
        total, profile = direct_sum_gqc(a, b)
        assert profile == (3,) * ell + (5,) * ell
        assert total.n == 8 * ell and total.k == a.k + b.k
        assert total.is_self_dual(EUCLIDEAN)
        assert is_gqc_invariant(total, profile)
        assert total.min_distance() == min(a.min_distance(), b.min_distance())
    z3 = LinearCode.zero(GF2, 6)
    z5 = LinearCode.zero(GF2, 10)
    assert direct_sum_gqc(z3, z5)[0].k == 0
    with pytest.raises(ValueError):
        direct_sum_gqc(LinearCode.zero(GF2, 6), LinearCode.zero(GF2, 15))


def test_direct_sum_refuses_a_joined_length_past_the_width_limit():
    # each input fits the 4,096-bit limit, their direct sum does not
    a, b = LinearCode.zero(GF2, 1560), LinearCode.zero(GF2, 2600)
    with pytest.raises(ValueError, match="^length 4160 over GF\\(2\\) takes 4160 bits, past the 4096-bit limit$"):
        direct_sum(a, b)
    assert direct_sum(LinearCode.zero(GF2, 1536), LinearCode.zero(GF2, 2560)).n == 4096


def test_duality_preservation_and_failure():
    rng = random.Random(10)
    for ell in (2, 4):
        c1 = census.sample_self_dual(2, ell, rng.getrandbits(63))
        c4 = census.sample_self_dual(4, ell, rng.getrandbits(63))
        c16 = census.sample_self_dual(16, ell, rng.getrandbits(63))
        assert cubic_code(c1, c4).is_self_dual(EUCLIDEAN)
        assert quintic_code(c1, c16).is_self_dual(EUCLIDEAN)
        # perturb one input so it stops being self-dual
        bad = LinearCode.from_rows(GF2, ell, [(1,) + (0,) * (ell - 1)])
        assert not bad.is_self_dual(EUCLIDEAN)
        assert not cubic_code(bad, c4).is_self_dual(EUCLIDEAN)
        assert not quintic_code(bad, c16).is_self_dual(EUCLIDEAN)
        bad4 = LinearCode.from_rows(GF4, ell, [(1,) + (0,) * (ell - 1)])
        assert not cubic_code(c1, bad4).is_self_dual(EUCLIDEAN)


def test_type_ii_preservation():
    rng = random.Random(12)
    ham = extended_hamming_code()
    assert ham.is_type_ii()
    c4 = census.sample_self_dual(4, 8, rng.getrandbits(63))
    c16 = census.sample_self_dual(16, 8, rng.getrandbits(63))
    assert cubic_code(ham, c4).is_type_ii()
    assert quintic_code(ham, c16).is_type_ii()
    # a Type I C1 does not give a Type II output
    type1 = LinearCode.from_rows(
        GF2, 8, [bits("11000000"), bits("00110000"), bits("00001100"), bits("00000011")]
    )
    assert type1.is_self_dual(EUCLIDEAN) and not type1.is_type_ii()
    assert not cubic_code(type1, c4).is_type_ii()
    assert not quintic_code(type1, c16).is_type_ii()


def test_quintic_type_iii_weights_divisible_by_five():
    rng = random.Random(13)
    for _ in range(50):
        ell = rng.randrange(1, 7)
        x = rand_vec(rng, 2, ell)
        w = sum(quintic_map(x, (0,) * ell))
        assert w == 5 * sum(x)
