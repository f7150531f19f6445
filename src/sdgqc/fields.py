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

# Modulus polynomials, bit i = coefficient of x^i (top bit included).
_MODULUS = {
    2: 0b10,      # x
    4: 0b111,     # x^2 + x + 1
    16: 0b11111,  # x^4 + x^3 + x^2 + x + 1
}


class Field:
    """One of GF(2), GF(4), GF(16), with table-driven multiplication."""

    def __init__(self, q: int):
        if q not in (2, 4, 16):
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        self.bits = q.bit_length() - 1  # bits per symbol: 1, 2 or 4
        times = self._scaler(1)
        self._mul = [[times(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _scaler(self, n: int):
        """c*v for packed vectors of length n (see packed_ops).

        Bit j of every symbol slot forms bit plane j, and v = sum of x^j * v_j
        over the planes.  Multiplying by x moves each plane up one and folds
        the top plane back through the modulus: x^bits = red.  c*v is then
        the XOR of x^j * v over the set bits j of c.  At n=1 this is the
        field multiplication itself.
        """
        b = self.bits
        low = ((1 << b * n) - 1) // (self.q - 1)  # the low bit of every slot
        keep = low * ((1 << b - 1) - 1)  # every plane but the top one
        red = _MODULUS[self.q] ^ 1 << b

        def scale(c: int, v: int) -> int:
            acc = 0
            while c:
                if c & 1:
                    acc ^= v
                c >>= 1
                v = (v & keep) << 1 ^ (v >> b - 1 & low) * red
            return acc

        return scale

    def packed_ops(self, n: int):
        """(scale, pair, support) on packed vectors of length n.

        A packed vector holds symbol i in bits [i*bits, (i+1)*bits), so its
        first nonzero column is its lowest set bit.  scale(c, v) is c*v;
        pair(u, v) is the designated inner product, sum u_i*v_i over GF(2)
        and the Hermitian sum u_i*conj(v_i) over GF(4)/GF(16); support(v) has
        the low bit of every nonzero symbol slot of v set.
        """
        if self.q == 2:
            return (lambda c, v: v if c else 0), (lambda u, v: (u & v).bit_count() & 1), (lambda v: v)
        b = self.bits
        low = ((1 << b * n) - 1) // (self.q - 1)
        # Both moduli are 1 + x + ... + x^bits, so x^(bits+1) = 1 and
        # conj(x^j) = x^-j: plane i of u meeting plane j of v adds x^(i-j)
        # once per shared set bit.  Parity is additive under XOR, so the
        # meetings are XORed per power of x before one popcount each.
        groups: dict = {}
        for s in range(1 - b, b):
            planes = sum(low << i for i in range(b) if 0 <= i - s < b)
            groups.setdefault(self.pow(2, s % (b + 1)), []).append((s, planes))
        groups = list(groups.items())

        def pair(u: int, v: int) -> int:
            acc = 0
            for t, meetings in groups:
                g = 0
                for s, planes in meetings:
                    g ^= u & (v << s if s > 0 else v >> -s) & planes
                if g.bit_count() & 1:
                    acc ^= t
            return acc

        def support(v: int) -> int:
            t = v
            for sh in range(1, b):
                t |= v >> sh
            return t & low

        return self._scaler(n), pair, support

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
        return self._inv[a]

    def conjugate(self, a: int) -> int:
        """The involutive automorphism: a^2 over GF(4), a^4 over GF(16)."""
        if self.q == 4:
            return self._mul[a][a]
        if self.q == 16:
            sq = self._mul[a][a]
            return self._mul[sq][sq]
        raise ValueError("conjugation is only defined over GF(4) and GF(16)")

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self._mul[r][a]
        return r

    def elements(self) -> range:
        return range(self.q)

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


def expand_binary(a: int) -> tuple[int, int, int, int]:
    """GF(16) element -> its four basis coefficients (a0, a1, a2, a3)."""
    GF16.check(a)
    return (a & 1, a >> 1 & 1, a >> 2 & 1, a >> 3 & 1)


def compose_binary(bits) -> int:
    """Inverse of expand_binary."""
    a0, a1, a2, a3 = bits
    return GF16.check(a0 | a1 << 1 | a2 << 2 | a3 << 3)
