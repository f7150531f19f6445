"""Exact counting formulas for self-dual code families.

All functions return plain Python ints (arbitrary precision); empty
products are 1.  The GF(16) Hermitian counts use the product form
prod (2^(4i+2)+1), which agrees with the exhaustive census and with the
ratio factors of the existence inequalities; the literal printed form with
a 12*5^ell*ell! denominator is kept only as a diagnostic (it yields
non-integers and contradicts the census).

A factor 2^a + 1 is applied as (out << a) + out: a shift and an addition,
linear in the size of out, in place of a big-integer multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def _check_even(ell: int) -> None:
    if ell < 2 or ell % 2:
        raise ValueError(f"length must be a positive even integer, got {ell}")


def _check_mult8(ell: int) -> None:
    if ell <= 0 or ell % 8:
        raise ValueError(f"length must be a positive multiple of 8, got {ell}")


def n_sd_binary(ell: int) -> int:
    """Number of Euclidean self-dual binary codes of length ell."""
    _check_even(ell)
    out = 1
    for i in range(1, ell // 2):
        out = (out << i) + out
    return out


def m_sd_binary(ell: int) -> int:
    """Number of self-dual binary codes containing a fixed admissible word."""
    _check_even(ell)
    if ell < 4:
        raise ValueError("needs ell >= 4")
    out = 1
    for i in range(1, ell // 2 - 1):
        out = (out << i) + out
    return out


def t_type2(ell: int) -> int:
    """Number of doubly even (Type II) self-dual binary codes."""
    _check_mult8(ell)
    out = 2
    for i in range(1, ell // 2 - 1):
        out = (out << i) + out
    return out


def s_type2(ell: int) -> int:
    """Number of Type II codes containing a fixed admissible word."""
    _check_mult8(ell)
    out = 2
    for i in range(1, ell // 2 - 2):
        out = (out << i) + out
    return out


def n_sd_hermitian16(ell: int) -> int:
    """Number of Hermitian self-dual GF(16) codes of length ell."""
    _check_even(ell)
    out = 1
    for i in range(0, ell // 2):
        out = (out << 4 * i + 2) + out
    return out


def m_sd_hermitian16(ell: int) -> int:
    """Number of Hermitian self-dual GF(16) codes containing a fixed word."""
    _check_even(ell)
    out = 1
    for i in range(0, ell // 2 - 1):
        out = (out << 4 * i + 2) + out
    return out


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


def n_sd_hermitian16_literal(ell: int) -> Fraction:
    """Literal printed form of the GF(16) count (diagnostic only)."""
    _check_even(ell)
    out = Fraction(1)
    denom = 12 * 5**ell * factorial(ell)
    for i in range(1, ell // 2):
        out *= Fraction(2 ** (4 * i + 2) + 1, denom)
    return out


def m_sd_hermitian16_literal(ell: int) -> Fraction:
    """Literal printed form of the containing-word GF(16) count (diagnostic)."""
    _check_even(ell)
    out = Fraction(1)
    denom = 12 * 5**ell * factorial(ell)
    for i in range(1, ell // 2 - 1):
        out *= Fraction(2 ** (4 * i + 2) + 1, denom)
    return out
