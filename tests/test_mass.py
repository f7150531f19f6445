import decimal
import sys
from fractions import Fraction
from math import factorial, prod

import pytest

from sdgqc import mass

#: (q, containing, type2) of each count, its int function and the largest
#: length whose count is computed
KINDS = [
    ((2, False, False), mass.n_sd_binary, 4096),
    ((2, True, False), mass.m_sd_binary, 4098),
    ((2, False, True), mass.t_type2, 4096),
    ((2, True, True), mass.s_type2, 4096),
    ((16, False, False), mass.n_sd_hermitian16, 2048),
    ((16, True, False), mass.m_sd_hermitian16, 2050),
]


@pytest.fixture
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def _decimal_string(n: int) -> str:
    """str(n) for a positive n, built by splitting n's bits in halves and
    joining the halves' Decimals as hi * 2^w + lo; it shares no code with
    the factor chunks of mass.count_digits and is not quadratic."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers = {}

    def convert(n, bits):
        if bits <= 4096:
            return decimal.Decimal(n)
        w = bits // 2
        if w not in powers:
            powers[w] = ctx.power(2, w)
        hi = ctx.multiply(convert(n >> w, bits - w), powers[w])
        return ctx.add(hi, convert(n & ((1 << w) - 1), w))

    return str(convert(n, n.bit_length()))


def test_binary_counts():
    assert mass.n_sd_binary(2) == 1
    assert mass.n_sd_binary(4) == 3
    assert mass.n_sd_binary(6) == 15
    assert mass.n_sd_binary(8) == 135
    assert mass.n_sd_binary(10) == 2295


def test_binary_containing_counts():
    assert mass.m_sd_binary(4) == 1
    assert mass.m_sd_binary(6) == 3
    assert mass.m_sd_binary(8) == 15


def test_type2_counts():
    assert mass.t_type2(8) == 30
    assert mass.t_type2(16) == 2 * 3 * 5 * 9 * 17 * 33 * 65
    assert mass.s_type2(8) == 6
    assert mass.s_type2(16) == 2 * 3 * 5 * 9 * 17 * 33


def test_hermitian16_counts():
    assert mass.n_sd_hermitian16(2) == 5
    assert mass.n_sd_hermitian16(4) == 5 * 65
    assert mass.n_sd_hermitian16(6) == 5 * 65 * 1025
    assert mass.m_sd_hermitian16(2) == 1
    assert mass.m_sd_hermitian16(4) == 5



def test_products_match_factor_lists():
    # the shift-and-add products against math.prod of the listed factors
    def factors(lo, hi, step=1, offset=0):
        return [2 ** (step * i + offset) + 1 for i in range(lo, hi)]

    for ell in range(2, 401, 2):
        h = ell // 2
        assert mass.n_sd_binary(ell) == prod(factors(1, h))
        assert mass.n_sd_hermitian16(ell) == prod(factors(0, h, 4, 2))
        assert mass.m_sd_hermitian16(ell) == prod(factors(0, h - 1, 4, 2))
        if ell >= 4:
            assert mass.m_sd_binary(ell) == prod(factors(1, h - 1))
        if ell % 8 == 0:
            assert mass.t_type2(ell) == 2 * prod(factors(1, h - 1))
            assert mass.s_type2(ell) == 2 * prod(factors(1, h - 2))


def test_count_and_its_exponent_match_every_kind():
    # the keyed entry points against the six int functions: the same int,
    # 2^E <= count, and the same lengths refused
    for (q, containing, type2), count, _ in KINDS:
        for ell in range(-2, 401, 2):
            try:
                want = count(ell)
            except ValueError as e:
                for keyed in (mass.count, mass.count_exponent):
                    with pytest.raises(ValueError) as refused:
                        keyed(q, ell, containing=containing, type2=type2)
                    assert str(refused.value) == str(e)
                continue
            assert mass.count(q, ell, containing=containing, type2=type2) == want
            assert 0 <= mass.count_exponent(q, ell, containing=containing, type2=type2) < want.bit_length()
    for q, type2 in ((4, False), (16, True)):
        for keyed in (mass.count, mass.count_exponent):
            with pytest.raises(ValueError):
                keyed(q, 8, type2=type2)


def test_counts_past_the_bit_limit_are_refused():
    # binary ell <= 4096 and GF(16) ell <= 2048 are computed; the next
    # lengths whose exponent sum passes 2^21 are refused
    assert mass.n_sd_binary(4096).bit_length() == 2096130
    assert mass.n_sd_hermitian16(2048).bit_length() == 2097153
    # the text path refuses them with the same message
    for ((q, containing, type2), count, _), ell in zip(KINDS, (4098, 4100, 4104, 4104, 2050, 2052)):
        with pytest.raises(ValueError, match="limit") as refused:
            count(ell)
        with pytest.raises(ValueError) as refused_text:
            mass.count_digits(q, ell, containing=containing, type2=type2)
        assert str(refused_text.value) == str(refused.value)
    # the literal forms' denominators (12*5^ell*ell!)^k pass 2^21 bits first
    # here, by k*bit_length
    for count, ell in ((mass.n_sd_hermitian16_literal, 642), (mass.m_sd_hermitian16_literal, 644)):
        with pytest.raises(ValueError, match="limit"):
            count(ell)


@pytest.mark.slow
def test_count_digits_match_the_counts(no_digit_limit):
    # every kind at every length up to 400: the text is str() of the int,
    # and a length the int function refuses the text path refuses alike
    for (q, containing, type2), count, _ in KINDS:
        for ell in range(2, 401, 2):
            try:
                want = str(count(ell))
            except ValueError as e:
                with pytest.raises(ValueError) as refused:
                    mass.count_digits(q, ell, containing=containing, type2=type2)
                assert str(refused.value) == str(e)
                continue
            assert mass.count_digits(q, ell, containing=containing, type2=type2) == want
    for q, type2 in ((4, False), (16, True)):
        with pytest.raises(ValueError):
            mass.count_digits(q, 8, type2=type2)


def test_decimal_string_reference(no_digit_limit):
    for n in (1, 2, 10**4000 - 1, 10**4000, mass.n_sd_hermitian16(320), mass.t_type2(400)):
        assert _decimal_string(n) == str(n)


@pytest.mark.slow
def test_count_digits_at_the_largest_lengths():
    # str() of a 631k-digit int takes about 7 s; _decimal_string is the
    # reference here instead
    for (q, containing, type2), count, ell in KINDS:
        text = mass.count_digits(q, ell, containing=containing, type2=type2)
        assert text == _decimal_string(count(ell))


def test_ratios_are_exact():
    for ell in range(4, 65, 2):
        assert mass.n_sd_binary(ell) == mass.binary_ratio(ell) * mass.m_sd_binary(ell)
    for ell in range(2, 65, 2):
        assert mass.n_sd_hermitian16(ell) == mass.hermitian16_ratio(ell) * mass.m_sd_hermitian16(
            ell
        )
    for ell in range(8, 65, 8):
        assert mass.t_type2(ell) == mass.type2_ratio(ell) * mass.s_type2(ell)


def test_ratio_values():
    assert mass.binary_ratio(4) == 3
    assert mass.binary_ratio(8) == 9
    assert mass.type2_ratio(8) == 5
    assert mass.hermitian16_ratio(2) == 5
    assert mass.hermitian16_ratio(4) == 65


def test_domain_validation():
    for fn in (mass.n_sd_binary, mass.n_sd_hermitian16, mass.binary_ratio):
        with pytest.raises(ValueError):
            fn(3)
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        mass.m_sd_binary(2)
    for fn in (mass.t_type2, mass.s_type2, mass.type2_ratio):
        with pytest.raises(ValueError):
            fn(4)


def test_literal_diagnostic_forms_are_fractions():
    # the literal printed form is kept only as a diagnostic; it is not an
    # integer and disagrees with the census-backed count
    v = mass.n_sd_hermitian16_literal(4)
    assert isinstance(v, Fraction)
    assert v == Fraction(65, 12 * 5**4 * 24)
    assert v != mass.n_sd_hermitian16(4)
    assert mass.n_sd_hermitian16_literal(2) == 1  # empty product
    assert mass.m_sd_hermitian16_literal(4) == 1
    # the printed form factor by factor: (2^(4i+2)+1)/D for 1 <= i < ell/2
    for ell in (6, 40):
        denom = 12 * 5**ell * factorial(ell)
        factors = [Fraction(2 ** (4 * i + 2) + 1, denom) for i in range(1, ell // 2)]
        assert mass.n_sd_hermitian16_literal(ell) == prod(factors)
        assert mass.m_sd_hermitian16_literal(ell) == prod(factors[:-1])


def test_counts_grow_monotonically():
    prev = 0
    for ell in range(2, 41, 2):
        cur = mass.n_sd_hermitian16(ell)
        assert cur > prev
        prev = cur
