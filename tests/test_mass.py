import decimal
import sys
from fractions import Fraction
from math import factorial, prod

import pytest

from sdgqc import mass

#: (q, containing, type2) of each count and the largest length whose count
#: is computed
KINDS = [
    ((2, False, False), 4096),
    ((2, True, False), 4098),
    ((2, False, True), 4096),
    ((2, True, True), 4096),
    ((16, False, False), 2048),
    ((16, True, False), 2050),
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
    assert mass.count(2, 2) == 1
    assert mass.count(2, 4) == 3
    assert mass.count(2, 6) == 15
    assert mass.count(2, 8) == 135
    assert mass.count(2, 10) == 2295


def test_binary_containing_counts():
    assert mass.count(2, 4, containing=True) == 1
    assert mass.count(2, 6, containing=True) == 3
    assert mass.count(2, 8, containing=True) == 15


def test_type2_counts():
    assert mass.count(2, 8, type2=True) == 30
    assert mass.count(2, 16, type2=True) == 2 * 3 * 5 * 9 * 17 * 33 * 65
    assert mass.count(2, 8, True, True) == 6
    assert mass.count(2, 16, True, True) == 2 * 3 * 5 * 9 * 17 * 33


def test_hermitian16_counts():
    assert mass.count(16, 2) == 5
    assert mass.count(16, 4) == 5 * 65
    assert mass.count(16, 6) == 5 * 65 * 1025
    assert mass.count(16, 2, containing=True) == 1
    assert mass.count(16, 4, containing=True) == 5



def test_products_match_factor_lists():
    # the shift-and-add products against math.prod of the listed factors
    def factors(lo, hi, step=1, offset=0):
        return [2 ** (step * i + offset) + 1 for i in range(lo, hi)]

    for ell in range(2, 401, 2):
        h = ell // 2
        assert mass.count(2, ell) == prod(factors(1, h))
        assert mass.count(16, ell) == prod(factors(0, h, 4, 2))
        assert mass.count(16, ell, containing=True) == prod(factors(0, h - 1, 4, 2))
        if ell >= 4:
            assert mass.count(2, ell, containing=True) == prod(factors(1, h - 1))
        if ell % 8 == 0:
            assert mass.count(2, ell, type2=True) == 2 * prod(factors(1, h - 1))
            assert mass.count(2, ell, True, True) == 2 * prod(factors(1, h - 2))


def test_count_and_its_exponent_match_every_kind():
    # count and count_exponent on every kind: 2^E <= count, and the same
    # lengths refused with the same messages
    for (q, containing, type2), _ in KINDS:
        for ell in range(-2, 401, 2):
            try:
                want = mass.count(q, ell, containing=containing, type2=type2)
            except ValueError as e:
                with pytest.raises(ValueError) as refused:
                    mass.count_exponent(q, ell, containing=containing, type2=type2)
                assert str(refused.value) == str(e)
                continue
            assert 0 <= mass.count_exponent(q, ell, containing=containing, type2=type2) < want.bit_length()
    for q, type2 in ((4, False), (16, True)):
        for keyed in (mass.count, mass.count_exponent):
            with pytest.raises(ValueError):
                keyed(q, 8, type2=type2)


def test_counts_past_the_bit_limit_are_refused():
    # binary ell <= 4096 and GF(16) ell <= 2048 are computed; the next
    # lengths whose exponent sum passes 2^21 are refused
    assert mass.count(2, 4096).bit_length() == 2096130
    assert mass.count(16, 2048).bit_length() == 2097153
    # the text path refuses them with the same message
    for ((q, containing, type2), _), ell in zip(KINDS, (4098, 4100, 4104, 4104, 2050, 2052)):
        with pytest.raises(ValueError, match="limit") as refused:
            mass.count(q, ell, containing=containing, type2=type2)
        with pytest.raises(ValueError) as refused_text:
            mass.count_digits(q, ell, containing=containing, type2=type2)
        assert str(refused_text.value) == str(refused.value)
    # the literal forms' denominators (12*5^ell*ell!)^k pass 2^21 bits first
    # here, by k*bit_length
    for containing, ell in ((False, 642), (True, 644)):
        with pytest.raises(ValueError, match="limit"):
            mass.literal(ell, containing=containing)


@pytest.mark.slow
def test_count_digits_match_the_counts(no_digit_limit):
    # every kind at every length up to 400: the text is str() of the int,
    # and a length the int function refuses the text path refuses alike
    for (q, containing, type2), _ in KINDS:
        for ell in range(2, 401, 2):
            try:
                want = str(mass.count(q, ell, containing=containing, type2=type2))
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
    for n in (1, 2, 10**4000 - 1, 10**4000, mass.count(16, 320), mass.count(2, 400, type2=True)):
        assert _decimal_string(n) == str(n)


@pytest.mark.parametrize("n", [0, 2**2000 - 1, 2**2000, 2**4000 + 1, 10**4300],
                         ids=["zero", "one-limb", "two-limbs", "three-limbs", "10^4300"])
def test_decimal_text_of_ints(n):
    # a single limb, the first two-limb int, an odd limb count and an int
    # of 4,301 digits, past the default int-to-str limit
    assert mass.decimal_text(n) == _decimal_string(n)


def test_decimal_text_of_fractions():
    for value in (Fraction(7), Fraction(3, 4), Fraction(2**4000 + 1, 3**3000), mass.literal(40)):
        assert mass.decimal_text(value) == str(value)


@pytest.mark.slow
def test_count_digits_at_the_largest_lengths():
    # str() of a 631k-digit int takes about 7 s; _decimal_string is the
    # reference here instead
    for (q, containing, type2), ell in KINDS:
        text = mass.count_digits(q, ell, containing=containing, type2=type2)
        assert text == _decimal_string(mass.count(q, ell, containing=containing, type2=type2))


def test_ratios_are_exact():
    for ell in range(4, 65, 2):
        assert mass.count(2, ell) == mass.ratio(2, ell) * mass.count(2, ell, containing=True)
    for ell in range(2, 65, 2):
        assert mass.count(16, ell) == mass.ratio(16, ell) * mass.count(16, ell, containing=True)
    for ell in range(8, 65, 8):
        assert mass.count(2, ell, type2=True) == mass.ratio(2, ell, type2=True) * mass.count(2, ell, True, True)


def test_ratio_values():
    assert mass.ratio(2, 4) == 3
    assert mass.ratio(2, 8) == 9
    assert mass.ratio(2, 8, type2=True) == 5
    assert mass.ratio(16, 2) == 5
    assert mass.ratio(16, 4) == 65
    # binary ell = 2 has no factors and no containing-word count, but a
    # ratio, 2^0 + 1
    assert mass.ratio(2, 2) == 2


def test_ratios_past_the_bit_limit_are_refused():
    # the GF(16) ratio 2^(2*ell-2) + 1: exponent 2^21 - 2 is built, 2^21 + 2
    # refused; the binary ratio 2^(ell/2-1) + 1 reaches 2^21 at ell = 4,194,306
    assert mass.ratio(16, 1048576) == 2**2097150 + 1
    assert mass.ratio(2, 4194306) == 2**2097152 + 1
    for q, ell, a in ((16, 1048578, 2097154), (2, 4194308, 2097153)):
        with pytest.raises(ValueError) as refused:
            mass.ratio(q, ell)
        assert str(refused.value) == f"the count ratio exceeds 2^{a}, past the 2^2097152 limit"


@pytest.mark.parametrize("q, ell, type2, message", [
    (2, 7, False, "length must be a positive even integer, got 7"),
    (2, 12, True, "length must be a positive multiple of 8, got 12"),
    (16, 4, True, "no Type II count over GF(16)"),
], ids=["odd-length", "type2-length", "type2-gf16"])
def test_ratio_refuses_what_the_count_refuses(q, ell, type2, message):
    for keyed in (mass.ratio, mass.count):
        with pytest.raises(ValueError) as refused:
            keyed(q, ell, type2=type2)
        assert str(refused.value) == message


def test_domain_validation():
    for q in (2, 16):
        for keyed in (mass.count, mass.ratio):
            with pytest.raises(ValueError):
                keyed(q, 3)
            with pytest.raises(ValueError):
                keyed(q, 0)
    with pytest.raises(ValueError):
        mass.count(2, 2, containing=True)
    for containing in (False, True):
        with pytest.raises(ValueError):
            mass.count(2, 4, containing, True)
    with pytest.raises(ValueError):
        mass.ratio(2, 4, type2=True)


def test_literal_diagnostic_forms_are_fractions():
    # the literal printed form is kept only as a diagnostic; it is not an
    # integer and disagrees with the census-backed count
    v = mass.literal(4)
    assert isinstance(v, Fraction)
    assert v == Fraction(65, 12 * 5**4 * 24)
    assert v != mass.count(16, 4)
    assert mass.literal(2) == 1  # empty product
    assert mass.literal(4, containing=True) == 1
    # the printed form factor by factor: (2^(4i+2)+1)/D for 1 <= i < ell/2
    for ell in (6, 40):
        denom = 12 * 5**ell * factorial(ell)
        factors = [Fraction(2 ** (4 * i + 2) + 1, denom) for i in range(1, ell // 2)]
        assert mass.literal(ell) == prod(factors)
        assert mass.literal(ell, containing=True) == prod(factors[:-1])


def test_counts_grow_monotonically():
    prev = 0
    for ell in range(2, 41, 2):
        cur = mass.count(16, ell)
        assert cur > prev
        prev = cur
