"""Exact counting formulas for self-dual code families.

The counts and ratios are plain Python ints (arbitrary precision); empty
products are 1.  The GF(16) Hermitian counts use the product form
prod (2^(4i+2)+1), which agrees with the exhaustive census and with the
ratio factors of the existence inequalities; the literal printed form with
a 12*5^ell*ell! denominator, `literal`, is kept only as a diagnostic (it
yields non-integers and contradicts the census).

Each count is start * prod(2^a + 1) over a range of exponents a, and
`_factors` is the one owner of every count's (exponents, start), of every
count ratio and of the lengths that have a count.  Every question is one
call keyed by q (2 or 16), ell, containing (the count of codes containing
a fixed admissible word) and type2 (doubly even binary codes): `count` and
`count_exponent` give the int and a lower bound 2^E on it, `count_digits`
its decimal string, and `ratio` the exact ratio of the count to its
containing-word count.  A factor 2^a + 1 is applied as (out << a) + out: a
shift and an addition, linear in the size of out, in place of a
big-integer multiplication.

`count_digits` prints a count from its factors in exact decimal arithmetic,
without building the int: the factors are shift-added into ints of about
_CHUNK_BITS bits, each chunk is converted to a Decimal, and the chunks are
multiplied pairwise in an exact context.  str() of a big int is quadratic
in CPython 3.11: 3.6-4.1 ms for the 15,413 digits of the GF(16) count at
ell=320, and 7-8 s for the 631k digits of the largest counts.  Printed from
their factors they take about 2 ms and 0.3 s (2-core host, Python 3.11.7).
A count or a ratio past 2^_MAX_BITS is refused with ValueError before it
is computed.
`decimal_text` prints any other big int, or a Fraction, by the same
Decimal joins from the int's own bits.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import factorial, inf, prod

#: the largest exponent sum a count may have: binary ell <= 4096 and GF(16)
#: ell <= 2048 fit
_MAX_BITS = 2**21


#: the size of the int chunks that count_digits converts to Decimal: libmpdec
#: multiplies by schoolbook below about 4,000 digits, by a transform above
_CHUNK_BITS = 2000
#: exact integer arithmetic: a product that needed rounding would raise
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def _factors(q: int, ell: int, containing: bool = False, type2: bool = False) -> tuple:
    """(exponents, start) of a count start * prod(2^a + 1 for a in exponents).

    The containing-word count drops the last factor, which is the count
    ratio (see `ratio`).
    """
    if q not in (2, 16) or type2 and q != 2:
        raise ValueError(f"no {'Type II ' if type2 else ''}count over GF({q})")
    if type2 and (ell <= 0 or ell % 8):
        raise ValueError(f"length must be a positive multiple of 8, got {ell}")
    if ell < 2 or ell % 2:
        raise ValueError(f"length must be a positive even integer, got {ell}")
    if type2:
        return range(1, ell // 2 - 1 - containing), 2
    if q == 16:
        return range(2, 2 * ell - 4 * containing, 4), 1
    if containing and ell < 4:
        raise ValueError("needs ell >= 4")
    return range(1, ell // 2 - containing), 1


def _exponent_sum(exponents: range) -> int:
    """sum(a): each factor 2^a + 1 exceeds 2^a, so a product of the factors
    has more than this many bits."""
    return len(exponents) * (exponents[0] + exponents[-1]) // 2 if exponents else 0


def count_exponent(q: int, ell: int, containing: bool = False, type2: bool = False) -> int:
    """E with 2^E <= the count: the factors' exponent sum, plus 1 for the
    leading 2 of a Type II count.  It is an arithmetic-series sum, so it
    costs nothing at any length."""
    exponents, start = _factors(q, ell, containing, type2)
    return _exponent_sum(exponents) + start.bit_length() - 1


def _chunks(exponents: range, start: int, bits: float):
    """Ints of about `bits` bits whose product is start * prod(2^a + 1).

    The product's exponent sum is refused past _MAX_BITS before any work is
    done.
    """
    total = _exponent_sum(exponents)
    if total > _MAX_BITS:
        raise ValueError(f"the count exceeds 2^{total}, past the 2^{_MAX_BITS} limit")
    out = start
    for a in exponents:
        out = (out << a) + out
        if out.bit_length() >= bits:
            yield out
            out = 1
    yield out


def _product(exponents: range, start: int = 1) -> int:
    return prod(_chunks(exponents, start, inf))


def count(q: int, ell: int, containing: bool = False, type2: bool = False) -> int:
    """The number of self-dual codes of length ell over GF(q), q = 2 or 16
    (Hermitian over GF(16)), as an int; with containing, of those that
    contain a fixed admissible word, and with type2, of the doubly even
    (Type II) binary ones."""
    return _product(*_factors(q, ell, containing, type2))


def ratio(q: int, ell: int, type2: bool = False) -> int:
    """count(q, ell, type2=type2) / count(q, ell, True, type2), exactly: the
    factor 2^a + 1 of the count's last exponent a, which the containing-word
    count drops.  It is 2^(ell/2-1)+1 binary, 2^(ell/2-2)+1 Type II and
    2^(2*ell-2)+1 over GF(16); binary ell = 2 has no factors, a = 0 and the
    ratio 2, though it has no containing-word count.  Like a count, a ratio
    past 2^_MAX_BITS (a > _MAX_BITS: binary ell > 4,194,306, GF(16)
    ell > 1,048,576) is refused with ValueError before it is built."""
    r = _factors(q, ell, type2=type2)[0]
    a = r.start + (len(r) - 1) * r.step
    if a > _MAX_BITS:
        raise ValueError(f"the count ratio exceeds 2^{a}, past the 2^{_MAX_BITS} limit")
    return 2**a + 1


def count_digits(q: int, ell: int, containing: bool = False, type2: bool = False) -> str:
    """The decimal string of a count, chosen by q, containing and type2 as
    in count; it has no int-to-str digit limit."""
    parts = [decimal.Decimal(c) for c in _chunks(*_factors(q, ell, containing, type2), _CHUNK_BITS)]
    while len(parts) > 1:
        paired = [_EXACT.multiply(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = paired + parts[len(paired) * 2:]
    return str(parts[0])


def decimal_text(value) -> str:
    """str(value) for a nonnegative int or a Fraction ("num/den", or "num"
    when den is 1), without the int-to-str digit limit.

    An int of more than _CHUNK_BITS bits is cut into _CHUNK_BITS-bit limbs,
    each limb converted to a Decimal, and neighbouring limbs joined as
    hi * P + lo in the exact context, P = 2^_CHUNK_BITS squared between
    levels; the last level joins the two limbs left, so P is never squared
    past the last join.
    """
    if isinstance(value, Fraction):
        num = decimal_text(value.numerator)
        return num if value.denominator == 1 else f"{num}/{decimal_text(value.denominator)}"
    if value.bit_length() <= _CHUNK_BITS:
        return str(value)
    size = _CHUNK_BITS // 8
    raw = value.to_bytes(-(-value.bit_length() // _CHUNK_BITS) * size, "little")
    parts = [decimal.Decimal(int.from_bytes(raw[i:i + size], "little")) for i in range(0, len(raw), size)]
    power = decimal.Decimal(1 << _CHUNK_BITS)
    while len(parts) > 2:
        paired = [_EXACT.fma(hi, power, lo) for lo, hi in zip(parts[::2], parts[1::2])]
        parts = paired + parts[len(paired) * 2:]
        power = _EXACT.multiply(power, power)
    return str(_EXACT.fma(parts[1], power, parts[0]))


def literal(ell: int, containing: bool = False) -> Fraction:
    """The literal printed form of the GF(16) count (or, with containing,
    of the containing-word count), a diagnostic only: prod(2^a + 1) / D^k
    over the count's factors but the first (2^2 + 1), the printed
    denominator D = 12*5^ell*ell! taken once per factor (k factors).

    D^k is refused past 2^_MAX_BITS by k*bit_length(D) before it is built;
    as D > 4^ell, a length with 2*ell*k past the limit is refused before D
    itself is.
    """
    exponents = _factors(16, ell, containing)[0][1:]  # 2^(4i+2) + 1, i >= 1
    k = len(exponents)
    denom = 12 * 5**ell * factorial(ell) if 2 * ell * k <= _MAX_BITS else 0
    if not denom or k * denom.bit_length() > _MAX_BITS:
        raise ValueError(f"the literal form's denominator (12*5^ell*ell!)^{k} is past the 2^{_MAX_BITS} limit")
    return Fraction(_product(exponents), denom**k)
