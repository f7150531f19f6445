from fractions import Fraction
from math import prod

import pytest

from sdgqc import mass


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


def test_counts_grow_monotonically():
    prev = 0
    for ell in range(2, 41, 2):
        cur = mass.n_sd_hermitian16(ell)
        assert cur > prev
        prev = cur
