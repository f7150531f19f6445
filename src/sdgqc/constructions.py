"""Cubic and quintic construction maps, block permutations, shift invariance.

Each map is one table (field, block masks).  Block j of the image of a
binary vector x and a vector s over the field is x + parity(s & masks[j])
at each coordinate, over the bits of s in the field's polynomial basis.
The cubic map, over GF(4) with s = a + b*w, sends (x, s) to the 3-block
binary word (x+a | x+b | x+a+b); the quintic map, over GF(16) with bits
(a0, a1, a2, a3), sends it to (x+a0 | x+a0+a1 | x+a1+a2 | x+a2+a3 | x+a3).
Outputs are in block order; `interleave` converts to the section order in
which quasi-cyclicity becomes a simultaneous within-section shift.
"""

from __future__ import annotations

from collections.abc import Sequence

from .fields import GF2, GF4, GF16
from .codes import LinearCode

_CUBIC = (GF4, (0b01, 0b10, 0b11))
_QUINTIC = (GF16, (0b0001, 0b0011, 0b0110, 0b1100, 0b1000))


def _check_bits(x: Sequence[int]) -> tuple:
    x = tuple(x)
    if any(b not in (0, 1) for b in x):
        raise ValueError("binary vector expected")
    return x


def _block_map(spec, x: Sequence[int], s: Sequence[int]) -> tuple:
    """(x, s) -> the len(masks)-block binary word of the table spec."""
    field, masks = spec
    x = _check_bits(x)
    s = tuple(s)
    if len(x) != len(s):
        raise ValueError("length mismatch")
    s = tuple(map(field.check, s))
    return tuple(xi ^ (c & m).bit_count() & 1 for m in masks for xi, c in zip(x, s))


def cubic_map(x: Sequence[int], s: Sequence[int]) -> tuple:
    """(x, s) over GF(2) x GF(4) -> binary word of length 3*len(x)."""
    return _block_map(_CUBIC, x, s)


def quintic_map(x: Sequence[int], s: Sequence[int]) -> tuple:
    """(x, s) over GF(2) x GF(16) -> binary word of length 5*len(x)."""
    return _block_map(_QUINTIC, x, s)


def _image_code(spec, c1: LinearCode, c2: LinearCode) -> LinearCode:
    """The image of c1 x c2 under the table's map, spanned by the images of
    c1's rows and of c*g for each row g of c2 and each c in the field's
    GF(2) basis 1 << j, j < bits."""
    field, masks = spec
    if c1.field.q != 2:
        raise ValueError("first component must be binary")
    if c2.field.q != field.q:
        raise ValueError(f"second component must be over GF({field.q})")
    if c1.n != c2.n:
        raise ValueError("component codes must share their length")
    zero = (0,) * c1.n
    rows = [_block_map(spec, g, zero) for g in c1.rows]
    rows += [
        _block_map(spec, zero, tuple(field.mul(1 << j, a) for a in g))
        for g in c2.rows
        for j in range(field.bits)
    ]
    code = LinearCode.from_rows(GF2, len(masks) * c1.n, rows)
    assert code.k == c1.k + field.bits * c2.k  # the map is injective and linear
    return code


def cubic_code(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Image of the cubic map; dim = dim(c1) + 2*dim(c2)."""
    return _image_code(_CUBIC, c1, c2)


def quintic_code(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Image of the quintic map; dim = dim(c1) + 4*dim(c2)."""
    return _image_code(_QUINTIC, c1, c2)


def crt_components(c: Sequence[int]) -> tuple:
    """Split a quintic-image binary word into its (GF(2), GF(16)) evaluations.

    Per coordinate position, evaluates the block polynomial c0 + c1*y + ...
    + c4*y^4 at y=1 and at y=A, the polynomial variable 0b10 of the table's
    field.  A has order 5, the block count, because the field's modulus is
    the 5th cyclotomic polynomial.  On quintic_map(x, s) this returns
    exactly (x, (1+A)*s).
    """
    field, masks = _QUINTIC
    m = len(masks)
    c = _check_bits(c)
    if len(c) % m:
        raise ValueError(f"length must be divisible by {m}")
    ell = len(c) // m
    apow = [field.pow(0b10, j) for j in range(m)]
    xs = []
    ss = []
    for i in range(ell):
        bits = [c[j * ell + i] for j in range(m)]
        xs.append(sum(bits) & 1)
        acc = 0
        for j in range(m):
            if bits[j]:
                acc ^= apow[j]
        ss.append(acc)
    return tuple(xs), tuple(ss)


def block_rotate(v: Sequence[int], blocks: int) -> tuple:
    """Cyclically permute equal blocks: (B1,...,Bb) -> (Bb,B1,...,B(b-1))."""
    v = tuple(v)
    if blocks <= 0 or len(v) % blocks:
        raise ValueError("length must be divisible by the block count")
    m = len(v) // blocks
    return v[-m:] + v[:-m]


def interleave(v: Sequence[int], ell: int, m: int) -> tuple:
    """m blocks of length ell -> ell sections of length m."""
    v = tuple(v)
    if len(v) != ell * m:
        raise ValueError("length must equal ell*m")
    return tuple(v[j * ell + i] for i in range(ell) for j in range(m))


def deinterleave(v: Sequence[int], ell: int, m: int) -> tuple:
    """ell sections of length m -> m blocks of length ell: the transpose,
    and so the inverse, of interleave."""
    return interleave(v, m, ell)


def _check_profile(profile: Sequence[int], length: int, what: str) -> tuple:
    """The profile as a tuple of section lengths, each at least 1, summing
    to the length of the vector or code named by what."""
    profile = tuple(profile)
    if any(m < 1 for m in profile):
        raise ValueError("profile sections must have length at least 1")
    if length != sum(profile):
        raise ValueError(f"profile does not match {what} length")
    return profile


def section_shift(v: Sequence[int], profile: Sequence[int]) -> tuple:
    """Simultaneously shift every section of the profile by one position."""
    v = tuple(v)
    profile = _check_profile(profile, len(v), "vector")
    out = []
    pos = 0
    for m in profile:
        sec = v[pos : pos + m]
        out.extend((sec[-1],) + sec[:-1])
        pos += m
    return tuple(out)


def is_gqc_invariant(code: LinearCode, profile: Sequence[int]) -> bool:
    """True iff the simultaneous section shift maps the code onto itself:
    the shift is a permutation, so σ(C) has C's dimension, and σ(C) = C iff
    every basis row's shift lies in C."""
    profile = _check_profile(profile, code.n, "code")
    return all(code.contains(section_shift(row, profile)) for row in code.rows)


def direct_sum(a: LinearCode, b: LinearCode) -> LinearCode:
    """Concatenation code {(u|v) : u in a, v in b}."""
    if a.field.q != b.field.q:
        raise ValueError("field mismatch")
    a.field.packed_ops(a.n + b.n)  # refuses a joined length past the width limit
    # b's pivots all follow a's, and each basis is zero on the other's
    # columns, so the joined bases are the canonical RREF as they stand
    shift = a.n * a.field.bits
    return LinearCode(a.field, a.n + b.n, a.basis + tuple(r << shift for r in b.basis))


def direct_sum_gqc(a: LinearCode, b: LinearCode) -> tuple:
    """Direct sum of an interleaved cubic code (length 3*ell) and an
    interleaved quintic code (length 5*ell); returns (code, profile) with
    profile = (3,...,3,5,...,5), the block counts of the two tables."""
    if a.field.q != 2 or b.field.q != 2:
        raise ValueError("binary codes expected")
    cubic, quintic = len(_CUBIC[1]), len(_QUINTIC[1])
    if a.n % cubic or b.n % quintic or a.n // cubic != b.n // quintic:
        raise ValueError("lengths must be 3*ell and 5*ell for the same ell")
    ell = a.n // cubic
    profile = (cubic,) * ell + (quintic,) * ell
    return direct_sum(a, b), profile
