"""Cubic and quintic construction maps, block permutations, shift invariance.

The cubic map sends a binary vector x and a GF(4) vector s = a + b*w to the
3-block binary word (x+a | x+b | x+a+b); the quintic map sends x and a
GF(16) vector s with coordinatewise basis expansion (a0, a1, a2, a3) to
(x+a0 | x+a0+a1 | x+a1+a2 | x+a2+a3 | x+a3).  Outputs are in block order;
`interleave` converts to the section order in which quasi-cyclicity becomes
a simultaneous within-section shift.
"""

from __future__ import annotations

from typing import Sequence

from .fields import GF2, GF4, GF16, ALPHA, OMEGA, expand_binary
from .codes import LinearCode


def _check_bits(x: Sequence[int]) -> tuple:
    x = tuple(x)
    if any(b not in (0, 1) for b in x):
        raise ValueError("binary vector expected")
    return x


def cubic_map(x: Sequence[int], s: Sequence[int]) -> tuple:
    """(x, s) over GF(2) x GF(4) -> binary word of length 3*len(x)."""
    x = _check_bits(x)
    s = tuple(s)
    if len(x) != len(s):
        raise ValueError("length mismatch")
    a = tuple(GF4.check(c) & 1 for c in s)
    b = tuple(c >> 1 & 1 for c in s)
    b1 = tuple(xi ^ ai for xi, ai in zip(x, a))
    b2 = tuple(xi ^ bi for xi, bi in zip(x, b))
    b3 = tuple(xi ^ ai ^ bi for xi, ai, bi in zip(x, a, b))
    return b1 + b2 + b3


def quintic_map(x: Sequence[int], s: Sequence[int]) -> tuple:
    """(x, s) over GF(2) x GF(16) -> binary word of length 5*len(x)."""
    x = _check_bits(x)
    s = tuple(s)
    if len(x) != len(s):
        raise ValueError("length mismatch")
    exp = [expand_binary(c) for c in s]
    a = [tuple(e[i] for e in exp) for i in range(4)]
    blocks = (
        tuple(xi ^ ai for xi, ai in zip(x, a[0])),
        tuple(xi ^ ai ^ bi for xi, ai, bi in zip(x, a[0], a[1])),
        tuple(xi ^ ai ^ bi for xi, ai, bi in zip(x, a[1], a[2])),
        tuple(xi ^ ai ^ bi for xi, ai, bi in zip(x, a[2], a[3])),
        tuple(xi ^ ai for xi, ai in zip(x, a[3])),
    )
    return blocks[0] + blocks[1] + blocks[2] + blocks[3] + blocks[4]


def _image_code(c1: LinearCode, c2: LinearCode, phi, scalars, field2, factor: int) -> LinearCode:
    if c1.field.q != 2:
        raise ValueError("first component must be binary")
    if c2.field is not field2:
        raise ValueError(f"second component must be over GF({field2.q})")
    if c1.n != c2.n:
        raise ValueError("component codes must share their length")
    ell = c1.n
    zero_x = (0,) * ell
    zero_s = (0,) * ell
    rows = [phi(g, zero_s) for g in c1.rows]
    for g in c2.rows:
        for c in scalars:
            rows.append(phi(zero_x, tuple(field2.mul(c, a) for a in g)))
    code = LinearCode.from_rows(GF2, factor * ell, rows)
    assert code.k == c1.k + len(scalars) * c2.k  # phi is injective and linear
    return code


def cubic_code(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Image of the cubic map; dim = dim(c1) + 2*dim(c2)."""
    return _image_code(c1, c2, cubic_map, (1, OMEGA), GF4, 3)


def quintic_code(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Image of the quintic map; dim = dim(c1) + 4*dim(c2)."""
    scalars = (1, ALPHA, GF16.mul(ALPHA, ALPHA), GF16.pow(ALPHA, 3))
    return _image_code(c1, c2, quintic_map, scalars, GF16, 5)


def crt_components(c: Sequence[int]) -> tuple:
    """Split a 5-block binary word into its (GF(2), GF(16)) evaluations.

    Per coordinate position, evaluates the block polynomial c0 + c1*y + ...
    + c4*y^4 at y=1 and y=A.  On quintic_map(x, s) this returns exactly
    (x, (1+A)*s).
    """
    c = _check_bits(c)
    if len(c) % 5:
        raise ValueError("length must be divisible by 5")
    ell = len(c) // 5
    apow = [GF16.pow(ALPHA, j) for j in range(5)]
    xs = []
    ss = []
    for i in range(ell):
        bits = [c[j * ell + i] for j in range(5)]
        xs.append(bits[0] ^ bits[1] ^ bits[2] ^ bits[3] ^ bits[4])
        acc = 0
        for j in range(5):
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
    v = tuple(v)
    if len(v) != ell * m:
        raise ValueError("length must equal ell*m")
    return tuple(v[i * m + j] for j in range(m) for i in range(ell))


def section_shift(v: Sequence[int], profile: Sequence[int]) -> tuple:
    """Simultaneously shift every section of the profile by one position."""
    v = tuple(v)
    if len(v) != sum(profile):
        raise ValueError("profile does not match vector length")
    out = []
    pos = 0
    for m in profile:
        sec = v[pos : pos + m]
        out.extend((sec[-1],) + sec[:-1])
        pos += m
    return tuple(out)


def is_gqc_invariant(code: LinearCode, profile: Sequence[int]) -> bool:
    """True iff the simultaneous section shift maps the code onto itself."""
    profile = tuple(profile)
    if code.n != sum(profile):
        raise ValueError("profile does not match code length")
    return all(code.contains(section_shift(row, profile)) for row in code.rows)


def direct_sum(a: LinearCode, b: LinearCode) -> LinearCode:
    """Concatenation code {(u|v) : u in a, v in b}."""
    if a.field.q != b.field.q:
        raise ValueError("field mismatch")
    rows = [r + (0,) * b.n for r in a.rows]
    rows += [(0,) * a.n + r for r in b.rows]
    return LinearCode.from_rows(a.field, a.n + b.n, rows)


def direct_sum_gqc(a: LinearCode, b: LinearCode) -> tuple:
    """Direct sum of an interleaved cubic code (length 3*ell) and an
    interleaved quintic code (length 5*ell); returns (code, profile) with
    profile = (3,...,3,5,...,5)."""
    if a.field.q != 2 or b.field.q != 2:
        raise ValueError("binary codes expected")
    if a.n % 3 or b.n % 5 or a.n // 3 != b.n // 5:
        raise ValueError("lengths must be 3*ell and 5*ell for the same ell")
    ell = a.n // 3
    profile = (3,) * ell + (5,) * ell
    return direct_sum(a, b), profile
