"""Arithmetic in GF(2), GF(4) and GF(16) with fixed moduli.

Elements are plain ints in [0, q) encoding coordinates over the polynomial
basis, least-significant bit first:

    GF(4):  value b0 + 2*b1  means  b0 + b1*w,      with w^2 = w + 1
    GF(16): value with bits (a0, a1, a2, a3) means  a0 + a1*A + a2*A^2 + a3*A^3,
            with A^4 = A^3 + A^2 + A + 1

The GF(16) modulus is the 5th cyclotomic polynomial, deliberately not a
primitive one: it forces A^5 = 1, which is what makes block rotation of a
quintic-constructed code correspond to multiplication by A.

Addition in all three fields is XOR of encodings.
"""

from __future__ import annotations

from collections import namedtuple

# Modulus polynomials, bit i = coefficient of x^i (top bit included).
_MODULUS = {
    2: 0b10,      # x
    4: 0b111,     # x^2 + x + 1
    16: 0b11111,  # x^4 + x^3 + x^2 + x + 1
}


#: packed_ops refuses vectors wider than this many bits: the RREF of a
#: zero code takes about 1 s at this width, and 5x that per doubling
_WIDTH_LIMIT = 4096

#: The primitives on packed vectors of one length, from Field.packed_ops:
#: multiples, v -> (c*v for c = 0..q-1); pair, (u, v) -> the designated
#: inner product, sum u_i*v_i over GF(2), the Hermitian sum u_i*conj(v_i)
#: over GF(4)/GF(16); support, v -> the low bit of every nonzero symbol
#: slot of v; isotropic, v -> pair(v, v) == 0.
PackedOps = namedtuple("PackedOps", "multiples pair support isotropic")


class Field:
    """One of GF(2), GF(4), GF(16), with table-driven multiplication."""

    def __init__(self, q: int):
        if q not in (2, 4, 16):
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        self.bits = q.bit_length() - 1  # bits per symbol: 1, 2 or 4
        # row a of the table is (c*a for c = 0..q-1): a's multiples at n=1
        self._mul = list(map(self.packed_ops(1).multiples, range(q)))
        self._inv = [0] + [self.pow(a, q - 2) for a in range(1, q)]  # a^(q-1) = 1

    def packed_ops(self, n: int) -> PackedOps:
        """The primitives on packed vectors of length n (see PackedOps).

        A packed vector holds symbol i in bits [i*bits, (i+1)*bits), so its
        first nonzero column is its lowest set bit.  Bit j of every symbol
        slot forms bit plane j, and v = sum of x^j * v_j over the planes.

        multiples: multiplying by x moves each plane up one and folds the
        top plane back through the modulus, x^bits = red.  Element c has
        bit j set for each x^j in it, so c*v is the XOR of the doublings
        x^j * v over those bits: the tuple is built by XOR alone, from
        bits - 1 multiplications by x.

        pair is straight-line code per field.  Both moduli are
        1 + x + ... + x^bits, so x^(bits+1) = 1 and conj(x^j) = x^-j: plane
        i of u meeting plane j of v adds x^(i-j) once per shared set bit.
        With P_s the parity of the meetings at shift s = i - j (those at -s
        are u << s against v), GF(4) gives P0 + P1*x + P-1*x^2 and GF(16)
        P0 + P1*x + (P2 + P-3)*x^2 + (P3 + P-2)*x^3 + P-1*x^4, where
        x^2 = 1 + x over GF(4) and x^4 = 1 + x + x^2 + x^3 over GF(16).
        Parity is additive under XOR, so meetings that land on the same
        power are XORed before one popcount.

        isotropic: with u = v, the shift-s and shift-(-s) plane meetings of
        pair have the same popcount (k <-> k+s maps one onto the other).
        So with P_s the parity of v & v << s restricted to planes s and up,
        pair(v, v) is P0 + sum over 0 < s < bits of P_s * (x^s + x^-s).
        Each bit of that sum must vanish: over GF(2) P0 = 0, over GF(4)
        P0 = P1, over GF(16) P0 = P1 = P2 xor P3.

        A length wider than _WIDTH_LIMIT bits raises ValueError.
        """
        if n * self.bits > _WIDTH_LIMIT:
            raise ValueError(f"length {n} over GF({self.q}) takes {n * self.bits} bits, "
                             f"past the {_WIDTH_LIMIT}-bit limit")
        if self.q == 2:
            return PackedOps(
                lambda v: (0, v),
                lambda u, v: (u & v).bit_count() & 1,
                lambda v: v,
                lambda v: not v.bit_count() & 1,
            )
        b = self.bits
        low = ((1 << b * n) - 1) // (self.q - 1)  # the low bit of every slot
        # m[s]: planes s and up, where a meeting at shift s can land
        m = [sum(low << i for i in range(s, b)) for s in range(b)]
        keep = m[0] ^ m[-1]  # every plane but the top one
        red = _MODULUS[self.q] ^ 1 << b  # x^bits, reduced
        if self.q == 4:
            m1 = m[1]

            def multiples(v: int) -> tuple:
                x = (v & keep) << 1 ^ (v >> 1 & low) * red
                return 0, v, x, v ^ x

            def pair(u: int, v: int) -> int:
                neg = (u << 1 & v & m1).bit_count()  # P-1, at x^2 = 1 + x
                return ((u & v).bit_count() ^ neg) & 1 | (((u & v << 1 & m1).bit_count() ^ neg) & 1) << 1

            def isotropic(v: int) -> bool:
                return not (v.bit_count() ^ (v & v << 1 & m1).bit_count()) & 1

        else:
            _, m1, m2, m3 = m

            def multiples(v: int) -> tuple:
                x = (v & keep) << 1 ^ (v >> 3 & low) * red
                x2 = (x & keep) << 1 ^ (x >> 3 & low) * red
                x3 = (x2 & keep) << 1 ^ (x2 >> 3 & low) * red
                v1 = v ^ x
                v2 = x2 ^ x3
                return (0, v, x, v1, x2, v ^ x2, x ^ x2, v1 ^ x2,
                        x3, v ^ x3, x ^ x3, v1 ^ x3, v2, v ^ v2, x ^ v2, v1 ^ v2)

            def pair(u: int, v: int) -> int:
                acc = (u & v).bit_count() & 1
                acc |= ((u & v << 1 & m1).bit_count() & 1) << 1
                acc |= ((u & v << 2 & m2 ^ u << 3 & v & m3).bit_count() & 1) << 2
                acc |= ((u & v << 3 & m3 ^ u << 2 & v & m2).bit_count() & 1) << 3
                if (u << 1 & v & m1).bit_count() & 1:  # P-1, at x^4 = 1 + x + x^2 + x^3
                    acc ^= 15
                return acc

            def isotropic(v: int) -> bool:
                p1 = (v & v << 1 & m1).bit_count()
                if (v.bit_count() ^ p1) & 1:
                    return False
                return not (p1 ^ (v & (v << 2 & m2 ^ v << 3 & m3)).bit_count()) & 1

        def support(v: int) -> int:
            t = v
            for sh in range(1, b):
                t |= v >> sh
            return t & low

        return PackedOps(multiples, pair, support, isotropic)

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")
        return a

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
        return self._inv[a]

    def conjugate(self, a: int) -> int:
        """The involutive automorphism a^sqrt(q): a^2 over GF(4), a^4 over GF(16)."""
        if self.q == 2:
            raise ValueError("conjugation is only defined over GF(4) and GF(16)")
        return self.pow(a, 1 << self.bits // 2)

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self._mul[r][a]
        return r

    def __repr__(self) -> str:
        return f"GF({self.q})"


GF2 = Field(2)
GF4 = Field(4)
GF16 = Field(16)

_BY_Q = {2: GF2, 4: GF4, 16: GF16}

#: w, the GF(4) generator with w^2 = w + 1.
OMEGA = 0b10
#: A, the GF(16) element of multiplicative order 5.
ALPHA = 0b0010


def field_for(q: int) -> Field:
    try:
        return _BY_Q[q]
    except KeyError:
        raise ValueError(f"unsupported field size {q}") from None


#: q -> norm_one(field_for(q)), built on first use
_NORM_ONE: dict = {}


def norm_one(field: Field) -> tuple:
    """(U, F): U the units u with u*conj(u) = 1, F = GF(sqrt q)* the nonzero
    c with conj(c) = c, both ascending.  |U| is 5 over GF(16), 3 over GF(4)
    and 1 over GF(2), whose Euclidean form takes conj as the identity.  F
    is a transversal of U: the norm c*conj(c) is c^2 on F, one-to-one, so
    each nonzero element is u*c for exactly one u in U and one c in F."""
    q = field.q
    if q not in _NORM_ONE:
        conj = field.conjugate if q > 2 else (lambda a: a)
        _NORM_ONE[q] = (tuple(u for u in range(1, q) if field.mul(u, conj(u)) == 1),
                        tuple(c for c in range(1, q) if conj(c) == c))
    return _NORM_ONE[q]
