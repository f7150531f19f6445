import hashlib
import json
import os
import random

import pytest

from sdgqc import census, mass
from sdgqc.codes import EUCLIDEAN, HERMITIAN, EnumerationBudgetExceeded, pack
from sdgqc.fields import field_for


def test_binary_census_matches_formula():
    for n in (2, 4, 6, 8, 10):
        count, _ = census.census(2, n)
        assert count == mass.n_sd_binary(n)


@pytest.mark.slow
def test_binary_census_n12():
    # one length past the old census's reach
    assert census.census(2, 12)[0] == mass.n_sd_binary(12) == 75735


def test_census_codes_are_self_dual_and_distinct():
    count, codes = census.census(2, 6, with_codes=True)
    assert count == len(codes) == len(set(codes)) == 15
    assert all(c.is_self_dual(EUCLIDEAN) for c in codes)


@pytest.mark.parametrize("q, n, type2, inner, formula", [
    (2, 8, False, EUCLIDEAN, mass.n_sd_binary),
    (2, 8, True, EUCLIDEAN, mass.t_type2),
    (16, 4, False, HERMITIAN, mass.n_sd_hermitian16),
])
def test_census_lists_are_complete(q, n, type2, inner, formula):
    # sorted, pairwise distinct, all self-dual (and Type II where asked),
    # and as many as the mass formula counts: together, the whole list
    count, codes = census.census(q, n, type2=type2, with_codes=True)
    rows = [c.rows for c in codes]
    assert rows == sorted(rows)
    assert len(set(codes)) == len(codes) == count == formula(n)
    assert all(c.is_self_dual(inner) for c in codes)
    if type2:
        assert all(c.is_type_ii() for c in codes)


def test_type2_census():
    count, codes = census.census(2, 8, type2=True, with_codes=True)
    assert count == mass.t_type2(8) == 30
    assert all(c.is_type_ii() for c in codes)
    with pytest.raises(ValueError):
        census.census(2, 4, type2=True)
    with pytest.raises(ValueError):
        census.census(16, 8, type2=True)


def test_containing_census():
    count, _ = census.census(2, 4, containing=(1, 1, 0, 0))
    assert count == mass.m_sd_binary(4) == 1
    count, _ = census.census(2, 6, containing=(1, 1, 0, 0, 0, 0))
    assert count == mass.m_sd_binary(6) == 3
    # an odd-weight word lies in no self-dual code
    count, found = census.census(2, 4, containing=(1, 0, 0, 0), with_codes=True)
    assert count == 0 and found == []
    with pytest.raises(ValueError):
        census.census(2, 4, containing=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        census.census(2, 4, containing=(1, 1))


@pytest.mark.parametrize("n", [8, 10])
def test_containing_census_matches_formula(n):
    # one word of each even weight short of n, at seeded random positions
    rng = random.Random(n)
    for w in range(2, n, 2):
        support = set(rng.sample(range(n), w))
        word = tuple(int(i in support) for i in range(n))
        count, _ = census.census(2, n, containing=word)
        assert count == mass.m_sd_binary(n), word
    # the all-ones word lies in every binary self-dual code
    assert census.census(2, n, containing=(1,) * n)[0] == mass.n_sd_binary(n)


def test_containing_census_covers_all_codes():
    # summing the containing-count over one orbit representative word per
    # code recovers membership consistency: every censused code containing
    # the word is found by the restricted census
    word = (1, 1, 1, 1, 0, 0)
    count, found = census.census(2, 6, containing=word, with_codes=True)
    _, all_codes = census.census(2, 6, with_codes=True)
    direct = [c for c in all_codes if c.contains(word)]
    assert count == len(direct)
    assert set(found) == set(direct)


def test_hermitian16_census_matches_formula():
    for n in (2, 4):
        count, _ = census.census(16, n)
        assert count == mass.n_sd_hermitian16(n)


@pytest.mark.slow
def test_hermitian16_census_n6():
    assert census.census(16, 6)[0] == mass.n_sd_hermitian16(6) == 333125


def test_hermitian16_containing_census_n6():
    f = field_for(16)
    pair = f.packed_ops(6)[1]

    def isotropic(word):
        return pair(pack(f, word), pack(f, word)) == 0

    rng = random.Random(6)
    words = [(1, 1, 0, 0, 0, 0), (0, 0, 3, 3, 3, 3)]
    while len(words) < 5:  # further isotropic words, at random
        word = tuple(rng.randrange(16) for _ in range(6))
        if any(word) and isotropic(word):
            words.append(word)
    for word in words:
        assert census.census(16, 6, containing=word)[0] == mass.m_sd_hermitian16(6) == 325, word
    # a non-isotropic word lies in no self-dual code
    for word in [(1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)]:
        assert not isotropic(word)
        assert census.census(16, 6, containing=word) == (0, None)


def test_hermitian16_census_codes():
    count, codes = census.census(16, 2, with_codes=True)
    assert count == 5
    assert all(c.is_self_dual(HERMITIAN) for c in codes)


def test_census_rejects_bad_input():
    with pytest.raises(ValueError):
        census.census(4, 2)
    with pytest.raises(ValueError):
        census.census(2, 3)
    with pytest.raises(EnumerationBudgetExceeded):
        census.census(2, 10, code_limit=100)


def test_census_count_lower_bound():
    # the fast refusal rests on 2^E <= count: it must never refuse a length
    # whose count is within the limit
    for n in range(2, 400, 2):
        for q, type2, count in ((2, False, mass.n_sd_binary), (2, True, mass.t_type2),
                                (16, False, mass.n_sd_hermitian16)):
            if type2 and n % 8:
                continue
            exponent = census._count_exponent(q, n, type2)
            assert exponent <= count(n).bit_length() - 1 < exponent + n
    with pytest.raises(EnumerationBudgetExceeded, match=r"^more than 2\^49995000 codes, limit 1000000$"):
        census.census(2, 20000)
    with pytest.raises(EnumerationBudgetExceeded, match=r"^about 4922775 codes, limit 1000000$"):
        census.census(2, 14)


def test_census_state_limit():
    # the search tree, pinned: one node per code at the leaves, plus the
    # root and the inner self-orthogonal codes.  Pruning may skip dead
    # candidates, never a visited node
    for q, n, nodes, codes in [(2, 8, 686, 135), (16, 4, 501, 325), (2, 10, 16116, 2295)]:
        with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
            census.census(q, n, state_limit=nodes - 1)
        assert census.census(q, n, state_limit=nodes)[0] == codes


@pytest.mark.parametrize("q, n, options, nodes, codes", [
    (2, 8, {"type2": True}, 188, 30),
    (2, 8, {"containing": (1, 1, 0, 0, 0, 0, 0, 0)}, 108, 15),
    (16, 4, {"containing": (1, 1, 1, 1)}, 14, 5),
])
def test_census_state_limit_restricted(q, n, options, nodes, codes):
    # the trees of the restricted censuses, pinned as above
    with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
        census.census(q, n, state_limit=nodes - 1, **options)
    assert census.census(q, n, state_limit=nodes, **options)[0] == codes


def test_census_state_limit_with_codes():
    # every leaf is both counted and listed, within the same node budget
    with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
        census.census(2, 8, with_codes=True, state_limit=685)
    count, codes = census.census(2, 8, with_codes=True, state_limit=686)
    assert count == len(codes) == len(set(codes)) == 135


def test_count_words_by_type_totals():
    # the three types partition the nonzero image words: totals must be
    # 2^(5*ell) - 1 unrestricted
    for ell in (1, 2):
        t1 = t2 = t3 = 0
        for d in range(5 * ell + 1):
            a1, a2, a3 = census.count_words_by_type(ell, d)
            t1, t2, t3 = t1 + a1, t2 + a2, t3 + a3
        assert t2 == 16**ell - 1
        assert t3 == 2**ell - 1
        assert t1 + t2 + t3 == 2 ** (5 * ell) - 1


def test_count_words_by_type_small_values():
    # ell=1: the 15 nonzero s-only words split into 10 of weight 2 and
    # 5 of weight 4; the single x-only word is the all-ones block
    assert census.count_words_by_type(1, 1) == (5, 0, 0)
    assert census.count_words_by_type(1, 2) == (0, 10, 0)
    assert census.count_words_by_type(1, 3) == (10, 0, 0)
    assert census.count_words_by_type(1, 4) == (0, 5, 0)
    assert census.count_words_by_type(1, 5) == (0, 0, 1)


def test_count_words_by_type_restricted():
    # restricted totals: even-weight x gives 2^(ell-1) choices, and the
    # isotropic s form a subgroup whose size the unrestricted tables expose
    for ell in (1, 2):
        totals = [0, 0, 0]
        for d in range(5 * ell + 1):
            counts = census.count_words_by_type(ell, d, restricted=True)
            totals = [t + c for t, c in zip(totals, counts)]
        assert totals[2] == 2 ** (ell - 1) - 1
        restricted_total = sum(totals)
        unrestricted = sum(
            sum(census.count_words_by_type(ell, d)) for d in range(5 * ell + 1)
        )
        assert restricted_total <= unrestricted
    # a single nonzero GF(16) symbol has nonzero fifth power, so no
    # restricted s-only words exist at ell=1
    assert sum(census.count_words_by_type(1, d, restricted=True)[1] for d in range(6)) == 0
    # at ell=2 the pairs (a, b) with a^5 = b^5 != 0 give 3 * 5 * 5 = 75
    # nonzero isotropic s
    assert sum(census.count_words_by_type(2, d, restricted=True)[1] for d in range(11)) == 75


def test_count_words_by_type_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        census.count_words_by_type(5, 2)


def test_sampler_reproducible_and_valid():
    for q, inner in [(2, EUCLIDEAN), (4, HERMITIAN), (16, HERMITIAN)]:
        for seed in (0, 1, 12345):
            a = census.sample_self_dual(q, 6, seed)
            b = census.sample_self_dual(q, 6, seed)
            assert a == b and a.rows == b.rows
            assert a.is_self_dual(inner)
    assert census.sample_self_dual(2, 6, 0) != census.sample_self_dual(2, 6, 1)


def test_sampler_matches_golden():
    # frozen by scripts/make_sample_golden.py: the reproducibility contract
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "sample_golden.json")
    with open(path) as f:
        cases = json.load(f)["cases"]
    assert {c["q"] for c in cases} == {2, 4, 16}
    for c in cases:
        dump = census.sample_self_dual(c["q"], c["n"], c["seed"]).dump()
        assert hashlib.sha256(dump.encode()).hexdigest() == c["sha256"], c


def test_sampler_hits_every_code():
    _, codes = census.census(2, 4, with_codes=True)
    seen = {census.sample_self_dual(2, 4, s) for s in range(200)}
    assert seen == set(codes)


def test_sampler_rejects_bad_length():
    with pytest.raises(ValueError):
        census.sample_self_dual(2, 3, 0)


def test_sampler_rejects_negative_seed():
    # random.Random seeds from |seed|: -7 would repeat seed 7's code
    for q in (2, 4, 16):
        with pytest.raises(ValueError, match="nonnegative"):
            census.sample_self_dual(q, 8, -7)
    assert census.sample_self_dual(16, 8, 0).is_self_dual(HERMITIAN)
