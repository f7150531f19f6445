"""Exact counting formulas for self-dual code families.

The counts and ratios are plain Python ints (arbitrary precision); empty
products are 1.  The GF(16) Hermitian counts use the product form
prod (2^(4i+2)+1), which agrees with the exhaustive census and with the
ratio factors of the existence inequalities; the literal printed form with
a 12*5^ell*ell! denominator is kept only as a diagnostic (it yields
non-integers and contradicts the census).

Each count is start * prod(2^a + 1) over a range of exponents a, and
`_factors` is the one owner of every count's (exponents, start) and of the
lengths that have a count.  `count` and `count_exponent`, keyed like
`count_digits` by (q, ell, containing, type2), give the int and a lower
bound 2^E on it.  A factor 2^a + 1 is applied as (out << a) + out: a shift
and an addition, linear in the size of out, in place of a big-integer
multiplication.

`count_digits` prints a count from its factors in exact decimal arithmetic,
without building the int: the factors are shift-added into ints of about
_CHUNK_BITS bits, each chunk is converted to a Decimal, and the chunks are
multiplied pairwise in an exact context.  str() of a big int is quadratic
in CPython 3.11: 3.6-4.1 ms for the 15,413 digits of the GF(16) count at
ell=320, and 7-8 s for the 631k digits of the largest counts.  Printed from
their factors they take about 2 ms and 0.3 s (2-core host, Python 3.11.7).
A count past 2^_MAX_BITS is refused with ValueError before it is computed.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import factorial, inf, prod

#: the largest exponent sum a count may have: binary ell <= 4096 and GF(16)
#: ell <= 2048 fit
_MAX_BITS = 2**21


def _check_even(ell: int) -> None:
    if ell < 2 or ell % 2:
        raise ValueError(f"length must be a positive even integer, got {ell}")


def _check_mult8(ell: int) -> None:
    if ell <= 0 or ell % 8:
        raise ValueError(f"length must be a positive multiple of 8, got {ell}")


#: the size of the int chunks that count_digits converts to Decimal: libmpdec
#: multiplies by schoolbook below about 4,000 digits, by a transform above
_CHUNK_BITS = 2000
#: exact integer arithmetic: a product that needed rounding would raise
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def _factors(q: int, ell: int, containing: bool = False, type2: bool = False) -> tuple:
    """(exponents, start) of a count start * prod(2^a + 1 for a in exponents).

    The containing-word count drops the last factor, which is the count
    ratio.
    """
    if q not in (2, 16) or type2 and q != 2:
        raise ValueError(f"no {'Type II ' if type2 else ''}count over GF({q})")
    if type2:
        _check_mult8(ell)
        return range(1, ell // 2 - 1 - containing), 2
    _check_even(ell)
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
    """A count as an int, chosen by q, containing and type2 as in
    count_digits."""
    return _product(*_factors(q, ell, containing, type2))


def count_digits(q: int, ell: int, containing: bool = False, type2: bool = False) -> str:
    """The decimal string of a count: n_sd_binary, m_sd_binary, t_type2,
    s_type2, n_sd_hermitian16 or m_sd_hermitian16, chosen by q, containing
    and type2; it has no int-to-str digit limit."""
    parts = [decimal.Decimal(c) for c in _chunks(*_factors(q, ell, containing, type2), _CHUNK_BITS)]
    while len(parts) > 1:
        paired = [_EXACT.multiply(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = paired + parts[len(paired) * 2:]
    return str(parts[0])


def n_sd_binary(ell: int) -> int:
    """Number of Euclidean self-dual binary codes of length ell."""
    return count(2, ell)


def m_sd_binary(ell: int) -> int:
    """Number of self-dual binary codes containing a fixed admissible word."""
    return count(2, ell, containing=True)


def t_type2(ell: int) -> int:
    """Number of doubly even (Type II) self-dual binary codes."""
    return count(2, ell, type2=True)


def s_type2(ell: int) -> int:
    """Number of Type II codes containing a fixed admissible word."""
    return count(2, ell, containing=True, type2=True)


def n_sd_hermitian16(ell: int) -> int:
    """Number of Hermitian self-dual GF(16) codes of length ell."""
    return count(16, ell)


def m_sd_hermitian16(ell: int) -> int:
    """Number of Hermitian self-dual GF(16) codes containing a fixed word."""
    return count(16, ell, containing=True)


def binary_ratio(ell: int) -> int:
    """n_sd_binary/m_sd_binary = 2^(ell/2-1)+1, exactly."""
    _check_even(ell)
    return 2 ** (ell // 2 - 1) + 1


def type2_ratio(ell: int) -> int:
    """t_type2/s_type2 = 2^(ell/2-2)+1, exactly."""
    _check_mult8(ell)
    return 2 ** (ell // 2 - 2) + 1


def hermitian16_ratio(ell: int) -> int:
    """n_sd_hermitian16/m_sd_hermitian16 = 2^(2*ell-2)+1, exactly."""
    _check_even(ell)
    return 2 ** (2 * ell - 2) + 1


def _literal(ell: int, containing: bool) -> Fraction:
    """prod(2^a + 1) / D^k over the GF(16) count's factors but the first
    (2^2 + 1), the printed denominator D = 12*5^ell*ell! taken once per
    factor (k factors).

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


def n_sd_hermitian16_literal(ell: int) -> Fraction:
    """Literal printed form of the GF(16) count (diagnostic only)."""
    return _literal(ell, containing=False)


def m_sd_hermitian16_literal(ell: int) -> Fraction:
    """Literal printed form of the containing-word GF(16) count (diagnostic)."""
    return _literal(ell, containing=True)
