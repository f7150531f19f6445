"""Brute-force per-type weight counts of the quintic image, for the tests.

The reference that `sdgqc.bounds.count_words_by_type` and the per-weight
bounds are checked against at block lengths ell <= 4.  It builds every one
of the 2^(5*ell) image words bit by bit, with its own GF(16) fifth powers,
and imports nothing from sdgqc.
"""

from functools import lru_cache

#: GF(16) = GF(2)[A]/(A^4 + A^3 + A^2 + A + 1), the modulus sdgqc.fields uses
MODULUS = 0b11111


def _mul(u: int, v: int) -> int:
    """u*v in GF(16), by shift-and-add with reduction at every shift."""
    p = 0
    while v:
        if v & 1:
            p ^= u
        v >>= 1
        u <<= 1
        if u & 0b10000:
            u ^= MODULUS
    return p


def _block(x: int, s: int) -> tuple:
    """The 5-bit block of coordinate pair (x, s), s as coefficient bits."""
    a0, a1, a2, a3 = (s >> k & 1 for k in range(4))
    return (x ^ a0, x ^ a0 ^ a1, x ^ a1 ^ a2, x ^ a2 ^ a3, x ^ a3)


@lru_cache(maxsize=None)
def brute_type_counts(ell: int, restricted: bool) -> tuple:
    """rows[d] = (a1, a2, a3) for d = 0..5*ell: the weight-d image words with
    both components nonzero, with x = 0, and with s = 0.

    restricted keeps only even-weight x with sum of s_i^5 zero.  Bit j*ell+i
    of a word is bit j of coordinate i's block.
    """
    fifth = [_mul(c, _mul(_mul(c, c), _mul(c, c))) for c in range(16)]
    # the s-part of symbol c at coordinate i, and the x-part of each x
    s_part = [[sum(bit << (j * ell + i) for j, bit in enumerate(_block(0, c))) for c in range(16)]
              for i in range(ell)]
    x_part = [sum((x >> i & 1) << (j * ell + i) for i in range(ell) for j in range(5))
              for x in range(1 << ell)]
    rows = [[0, 0, 0] for _ in range(5 * ell + 1)]
    for sint in range(16**ell):
        pattern = norm = 0
        for i in range(ell):
            c = sint >> 4 * i & 0xF
            pattern |= s_part[i][c]
            norm ^= fifth[c]
        if restricted and norm:
            continue
        for x in range(1 << ell):
            if restricted and x.bit_count() & 1 or not (x or sint):
                continue
            t = 1 if not x else 2 if not sint else 0
            rows[(pattern ^ x_part[x]).bit_count()][t] += 1
    return tuple(map(tuple, rows))
