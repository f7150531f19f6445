"""Exact counting formulas for self-dual code families.

All functions return plain Python ints (arbitrary precision); empty
products are 1.  The GF(16) Hermitian counts use the product form
prod (2^(4i+2)+1), which agrees with the exhaustive census and with the
ratio factors of the existence inequalities; the literal printed form with
a 12*5^ell*ell! denominator is kept only as a diagnostic (it yields
non-integers and contradicts the census).

A factor 2^a + 1 is applied as (out << a) + out: a shift and an addition,
linear in the size of out, in place of a big-integer multiplication.  A
count past 2^_MAX_BITS is refused with ValueError before it is computed:
its product and decimal string would take minutes to days.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

#: the largest exponent sum a count may have: binary ell <= 4096 and GF(16)
#: ell <= 2048 fit
_MAX_BITS = 2**21


def _check_even(ell: int) -> None:
    if ell < 2 or ell % 2:
        raise ValueError(f"length must be a positive even integer, got {ell}")


def _check_mult8(ell: int) -> None:
    if ell <= 0 or ell % 8:
        raise ValueError(f"length must be a positive multiple of 8, got {ell}")


def _product(exponents: range, start: int = 1) -> int:
    """start * prod(2^a + 1 for a in exponents).

    Each factor exceeds 2^a, so the product has more than sum(a) bits; that
    arithmetic-series sum is refused past _MAX_BITS before any work is done.
    """
    total = len(exponents) * (exponents[0] + exponents[-1]) // 2 if exponents else 0
    if total > _MAX_BITS:
        raise ValueError(f"the count exceeds 2^{total}, past the 2^{_MAX_BITS} limit")
    out = start
    for a in exponents:
        out = (out << a) + out
    return out


def n_sd_binary(ell: int) -> int:
    """Number of Euclidean self-dual binary codes of length ell."""
    _check_even(ell)
    return _product(range(1, ell // 2))


def m_sd_binary(ell: int) -> int:
    """Number of self-dual binary codes containing a fixed admissible word."""
    _check_even(ell)
    if ell < 4:
        raise ValueError("needs ell >= 4")
    return _product(range(1, ell // 2 - 1))


def t_type2(ell: int) -> int:
    """Number of doubly even (Type II) self-dual binary codes."""
    _check_mult8(ell)
    return _product(range(1, ell // 2 - 1), start=2)


def s_type2(ell: int) -> int:
    """Number of Type II codes containing a fixed admissible word."""
    _check_mult8(ell)
    return _product(range(1, ell // 2 - 2), start=2)


def n_sd_hermitian16(ell: int) -> int:
    """Number of Hermitian self-dual GF(16) codes of length ell."""
    _check_even(ell)
    return _product(range(2, 2 * ell, 4))


def m_sd_hermitian16(ell: int) -> int:
    """Number of Hermitian self-dual GF(16) codes containing a fixed word."""
    _check_even(ell)
    return _product(range(2, 2 * ell - 4, 4))


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


def _literal(ell: int, exponents: range) -> Fraction:
    """prod(2^a + 1 for a in exponents) / D^k, the printed denominator
    D = 12*5^ell*ell! taken once per factor (k = len(exponents) factors).

    D^k is refused past 2^_MAX_BITS by k*bit_length(D) before it is built;
    as D > 4^ell, a length with 2*ell*k past the limit is refused before D
    itself is.
    """
    k = len(exponents)
    denom = 12 * 5**ell * factorial(ell) if 2 * ell * k <= _MAX_BITS else 0
    if not denom or k * denom.bit_length() > _MAX_BITS:
        raise ValueError(f"the literal form's denominator (12*5^ell*ell!)^{k} is past the 2^{_MAX_BITS} limit")
    return Fraction(_product(exponents), denom**k)


def n_sd_hermitian16_literal(ell: int) -> Fraction:
    """Literal printed form of the GF(16) count (diagnostic only)."""
    _check_even(ell)
    return _literal(ell, range(6, 2 * ell, 4))  # 2^(4i+2) + 1, 1 <= i < ell/2


def m_sd_hermitian16_literal(ell: int) -> Fraction:
    """Literal printed form of the containing-word GF(16) count (diagnostic)."""
    _check_even(ell)
    return _literal(ell, range(6, 2 * ell - 4, 4))  # 1 <= i < ell/2 - 1
