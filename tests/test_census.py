import hashlib
import json
import os
import random

import pytest

from sdgqc import bounds, census, fields, mass
from sdgqc.codes import EUCLIDEAN, HERMITIAN, EnumerationBudgetExceeded, _eliminate, pack
from sdgqc.fields import field_for


def test_binary_census_matches_formula():
    for n in (2, 4, 6, 8, 10):
        count, _ = census.census(2, n)
        assert count == mass.count(2, n)


def test_binary_census_n12():
    # one length past the old census's reach
    assert census.census(2, 12)[0] == mass.count(2, 12) == 75735


def test_census_codes_are_self_dual_and_distinct():
    count, codes = census.census(2, 6, with_codes=True)
    assert count == len(codes) == len(set(codes)) == 15
    assert all(c.is_self_dual(EUCLIDEAN) for c in codes)


@pytest.mark.parametrize("q, n, type2, inner", [
    (2, 8, False, EUCLIDEAN),
    (2, 8, True, EUCLIDEAN),
    (16, 4, False, HERMITIAN),
])
def test_census_lists_are_complete(q, n, type2, inner):
    # sorted, pairwise distinct, all self-dual (and Type II where asked),
    # and as many as the mass formula counts: together, the whole list
    count, codes = census.census(q, n, type2=type2, with_codes=True)
    rows = [c.rows for c in codes]
    assert rows == sorted(rows)
    assert len(set(codes)) == len(codes) == count == mass.count(q, n, type2=type2)
    assert all(c.is_self_dual(inner) for c in codes)
    if type2:
        assert all(c.is_type_ii() for c in codes)


def test_type2_census():
    count, codes = census.census(2, 8, type2=True, with_codes=True)
    assert count == mass.count(2, 8, type2=True) == 30
    assert all(c.is_type_ii() for c in codes)
    with pytest.raises(ValueError):
        census.census(2, 4, type2=True)
    with pytest.raises(ValueError):
        census.census(16, 8, type2=True)


def test_containing_census():
    count, _ = census.census(2, 4, containing=(1, 1, 0, 0))
    assert count == mass.count(2, 4, containing=True) == 1
    count, _ = census.census(2, 6, containing=(1, 1, 0, 0, 0, 0))
    assert count == mass.count(2, 6, containing=True) == 3
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
        assert count == mass.count(2, n, containing=True), word
    # the all-ones word lies in every binary self-dual code
    assert census.census(2, n, containing=(1,) * n)[0] == mass.count(2, n)


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
        assert count == mass.count(16, n)


def test_hermitian16_census_n6():
    assert census.census(16, 6)[0] == mass.count(16, 6) == 333125


def _hermitian16_words() -> list:
    """Five isotropic GF(16) words of length 6: two fixed, three seeded."""
    f = field_for(16)
    isotropic = f.packed_ops(6).isotropic
    rng = random.Random(6)
    words = [(1, 1, 0, 0, 0, 0), (0, 0, 3, 3, 3, 3)]
    while len(words) < 5:
        word = tuple(rng.randrange(16) for _ in range(6))
        if any(word) and isotropic(pack(f, word, 6)):
            words.append(word)
    return words


def test_hermitian16_containing_census_n6():
    f = field_for(16)
    pair = f.packed_ops(6).pair

    def isotropic(word):
        return pair(pack(f, word, 6), pack(f, word, 6)) == 0

    words = _hermitian16_words()
    assert all(isotropic(word) for word in words)
    for word in words:
        assert census.census(16, 6, containing=word)[0] == mass.count(16, 6, containing=True) == 325, word
    # a non-isotropic word lies in no self-dual code
    for word in [(1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)]:
        assert not isotropic(word)
        assert census.census(16, 6, containing=word) == (0, None)


def test_hermitian16_census_codes():
    count, codes = census.census(16, 2, with_codes=True)
    assert count == 5
    assert all(c.is_self_dual(HERMITIAN) for c in codes)


@pytest.mark.parametrize("q, n, type2", [
    (4, 2, False), (16, 8, True), (2, 12, True), (2, 3, False), (2, 0, False), (2, -2, False),
])
def test_census_rejects_bad_input(monkeypatch, q, n, type2):
    # `mass` has no count for these, so the census refuses them before its search
    def search(*args):
        raise AssertionError("the census searched")

    monkeypatch.setattr(census, "kernel_basis", search)
    with pytest.raises(ValueError):
        census.census(q, n, type2=type2)


def test_census_count_lower_bound():
    # the fast refusal rests on 2^E <= count: it must never refuse a length
    # whose count is within the limit
    for n in range(2, 400, 2):
        for q, type2 in ((2, False), (2, True), (16, False)):
            if type2 and n % 8:
                continue
            exponent = mass.count_exponent(q, n, type2=type2)
            assert exponent <= mass.count(q, n, type2=type2).bit_length() - 1 < exponent + n
    with pytest.raises(EnumerationBudgetExceeded, match=r"^more than 2\^49995000 codes, limit 1000000$"):
        census.census(2, 20000)
    with pytest.raises(EnumerationBudgetExceeded, match=r"^about 4922775 codes, limit 1000000$"):
        census.census(2, 14)


def _pivots_fill_first_gap(rows) -> bool:
    """True iff each row's pivot (its first nonzero symbol) is the first
    column that no row above it is nonzero in."""
    used: set = set()
    for row in rows:
        support = {i for i, c in enumerate(row) if c}
        if min(support) != min(set(range(len(row))) - used):
            return False
        used |= support
    return True


def test_self_dual_pivot_fills_first_unused_column():
    # the census branches only on this: a column left of row k's pivot that
    # no earlier row uses is zero in the whole code, and a self-dual code
    # has no zero column (its unit vector would lie in C^perp = C, and no
    # unit vector is isotropic).  Checked on the sampler's codes, which
    # share no search code with the census, and on the frozen listings
    for q, lengths in ((2, (2, 8, 16, 40)), (4, (2, 6, 12)), (16, (2, 4, 10))):
        for n in lengths:
            for seed in range(20):
                assert _pivots_fill_first_gap(census.sample_self_dual(q, n, seed).rows), (q, n, seed)
    for q, n in ((2, 8), (16, 4)):
        _, codes = census.census(q, n, with_codes=True)
        assert all(_pivots_fill_first_gap(c.rows) for c in codes)
    # a code with a zero column (column 1) breaks it
    assert not _pivots_fill_first_gap([(1, 0, 1, 0), (0, 0, 0, 1)])


def census_within(nodes, *args, **options):
    """census(*args, **options) with a node budget of `nodes`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_STATE_LIMIT", nodes)
        return census.census(*args, **options)


STATE_TREES = [(2, 8, 100, 135), (16, 4, 99, 325), (2, 10, 1287, 2295)]


def test_census_state_limit():
    # the visited search tree, pinned: the root, the inner self-orthogonal
    # codes and the leaves.  A dead end skipped before its elimination is
    # not a visit, nor is a state whose leaves are reused from an earlier
    # visit, and a dual row whose pivot is not the first unused column is
    # not branched on
    for q, n, nodes, codes in STATE_TREES:
        with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
            census_within(nodes - 1, q, n)
        assert census_within(nodes, q, n)[0] == codes


def test_census_state_limit_with_codes():
    # a listing visits the nodes a count does, and both counts and lists
    # every leaf
    for q, n, nodes, codes in STATE_TREES:
        with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
            census_within(nodes - 1, q, n, with_codes=True)
        count, listed = census_within(nodes, q, n, with_codes=True)
        assert count == len(listed) == len(set(listed)) == codes


@pytest.mark.parametrize("q, n, options, nodes, codes", [
    (2, 8, {"type2": True}, 58, 30),
    (2, 8, {"containing": (1, 1, 0, 0, 0, 0, 0, 0)}, 34, 15),
    (16, 4, {"containing": (1, 1, 1, 1)}, 11, 5),
])
def test_census_state_limit_restricted(q, n, options, nodes, codes):
    # the trees of the restricted censuses, pinned as above
    with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
        census_within(nodes - 1, q, n, **options)
    assert census_within(nodes, q, n, **options)[0] == codes


@pytest.mark.parametrize("q, n, options, calls", [
    (16, 4, {}, 33),
    (16, 6, {"containing": (1, 1, 0, 0, 0, 0)}, 123),
    (16, 4, {"containing": (1, 1, 1, 1)}, 5),
    (2, 8, {}, 161),
])
def test_census_eliminations(monkeypatch, q, n, options, calls):
    # the work, pinned: a state whose first free dual row d shares no column
    # with the later rows eliminates once for each group d + U*s of norm-one
    # multiples, not once per row (165 and 615 for the first two, one per
    # row); a binary census has groups of one
    made = []

    def eliminate(*args):
        made.append(1)
        return _eliminate(*args)

    monkeypatch.setattr(census, "_eliminate", eliminate)
    assert census.census(q, n, **options)[0] == mass.count(q, n, containing="containing" in options)
    assert len(made) == calls


@pytest.mark.parametrize("q, n, options", [
    (16, 2, {}),
    (16, 4, {}),
    (16, 4, {"containing": (1, 1, 1, 1)}),
    *((16, 6, {"containing": word}) for word in _hermitian16_words()),
])
def test_census_norm_one_groups_match_the_plain_search(monkeypatch, q, n, options):
    # with U = {1} every group d + U*s has one row and the search grows one
    # child per candidate row, with no reuse across a group: it must count
    # and list the same codes in the same order, and visit as many nodes
    def run(**more):
        count, codes = census.census(q, n, **options, **more)
        return count, codes and [c.dump() for c in codes]

    grouped = run(), run(with_codes=True)
    nodes = _visits(q, n, options)
    monkeypatch.setitem(fields._NORM_ONE, q, ((1,), tuple(range(1, q))))
    assert (run(), run(with_codes=True)) == grouped
    with pytest.raises(EnumerationBudgetExceeded, match="state budget"):
        census_within(nodes - 1, q, n, **options)
    assert census_within(nodes, q, n, **options)[0] == grouped[0][0]


def _visits(q, n, options) -> int:
    """The fewest search-tree nodes that the census of (q, n, options) runs
    within, found by bisection."""
    lo, hi = 0, 1
    while _refused(hi, q, n, options):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _refused(mid, q, n, options) else (lo, mid)
    return hi


def _refused(nodes, q, n, options) -> bool:
    try:
        census_within(nodes, q, n, **options)
    except EnumerationBudgetExceeded:
        return True
    return False


def _seeded_words(n: int) -> list:
    """20 nonzero even-weight binary words of length n, seeded by n."""
    rng = random.Random(n)
    words: list = []
    while len(words) < 20:
        head = tuple(rng.randrange(2) for _ in range(n - 1))
        if any(head):
            words.append(head + (sum(head) % 2,))
    return words


@pytest.mark.parametrize("q, n, options, digest", [
    (2, 8, {}, "6ed71cc4bed190008b63e6841931f369aea8379067f05abef476bf7386407c16"),
    (2, 8, {"type2": True}, "c077655099210fc21f9ee9d6509f487c6bbc86d01384d1d442ff47f19c11b037"),
    (2, 8, {"containing": (1, 1, 0, 0, 0, 0, 0, 0)},
     "00c645362399abd97fbfe39a3d7d1e5c1294205352c8491d21d0fbc4f33625f6"),
    (16, 4, {}, "08b1b77e42aab5d0abe1dd0e33c3c8684ab84493aff4b4391584f10357b3fec6"),
    (2, 10, {}, "dae7733052aee202b3c4371ef9bd389dfedf930a8fdc5b1b81544b685aab8db7"),
    pytest.param(2, 12, {}, "489ac83844295fb677f4cf87a51ec9e90d653304999556526c727c5d55facf76",
                 marks=pytest.mark.slow),
    pytest.param(16, 6, {}, "259098829a12eb2c3a55217d5bbee69dc84156cf5d80f27639c4752f901dc420",
                 marks=pytest.mark.slow),
])
def test_census_listings_frozen(q, n, options, digest):
    # the sha256 of the joined dumps of each listing, frozen: the codes,
    # their rows and their order are the listing's contract
    _, codes = census.census(q, n, with_codes=True, **options)
    assert hashlib.sha256("".join(c.dump() for c in codes).encode()).hexdigest() == digest


@pytest.mark.parametrize("q, n, options", [
    *((2, n, {}) for n in (2, 4, 6, 8, 10)),
    (2, 8, {"type2": True}),
    (16, 2, {}),
    (16, 4, {}),
    (16, 4, {"containing": (1, 1, 1, 1)}),
    *((2, n, {"containing": word}) for n in (8, 10) for word in _seeded_words(n)),
])
def test_census_count_matches_listing(q, n, options):
    # a count adds up the leaves of the search states and a listing reads
    # them back along the states' kids: the two must agree in number, the
    # listing must be in text order, and test_census_listings_frozen pins
    # what the listings hold
    count, _ = census.census(q, n, **options)
    listed, codes = census.census(q, n, with_codes=True, **options)
    assert count == listed == len(codes)
    texts = [c.dump() for c in codes]
    assert texts == sorted(texts)


def test_count_words_by_type_totals():
    # the three types partition the nonzero image words: totals must be
    # 2^(5*ell) - 1 unrestricted
    for ell in (1, 2):
        t1 = t2 = t3 = 0
        for d in range(5 * ell + 1):
            a1, a2, a3 = bounds.count_words_by_type(ell, d)
            t1, t2, t3 = t1 + a1, t2 + a2, t3 + a3
        assert t2 == 16**ell - 1
        assert t3 == 2**ell - 1
        assert t1 + t2 + t3 == 2 ** (5 * ell) - 1


def test_count_words_by_type_small_values():
    # ell=1: the 15 nonzero s-only words split into 10 of weight 2 and
    # 5 of weight 4; the single x-only word is the all-ones block
    assert bounds.count_words_by_type(1, 1) == (5, 0, 0)
    assert bounds.count_words_by_type(1, 2) == (0, 10, 0)
    assert bounds.count_words_by_type(1, 3) == (10, 0, 0)
    assert bounds.count_words_by_type(1, 4) == (0, 5, 0)
    assert bounds.count_words_by_type(1, 5) == (0, 0, 1)


def test_count_words_by_type_restricted():
    # restricted totals: even-weight x gives 2^(ell-1) choices, and the
    # isotropic s form a subgroup whose size the unrestricted tables expose
    for ell in (1, 2):
        totals = [0, 0, 0]
        for d in range(5 * ell + 1):
            counts = bounds.count_words_by_type(ell, d, restricted=True)
            totals = [t + c for t, c in zip(totals, counts)]
        assert totals[2] == 2 ** (ell - 1) - 1
        restricted_total = sum(totals)
        unrestricted = sum(
            sum(bounds.count_words_by_type(ell, d)) for d in range(5 * ell + 1)
        )
        assert restricted_total <= unrestricted
    # a single nonzero GF(16) symbol has nonzero fifth power, so no
    # restricted s-only words exist at ell=1
    assert sum(bounds.count_words_by_type(1, d, restricted=True)[1] for d in range(6)) == 0
    # at ell=2 the pairs (a, b) with a^5 = b^5 != 0 give 3 * 5 * 5 = 75
    # nonzero isotropic s
    assert sum(bounds.count_words_by_type(2, d, restricted=True)[1] for d in range(11)) == 75


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


def test_sampler_draw_budget(monkeypatch):
    # a row that finds no extension within _MAX_DRAWS draws is refused
    monkeypatch.setattr(census, "_MAX_DRAWS", 0)
    with pytest.raises(EnumerationBudgetExceeded, match="^sampler drew 0 vectors without extending the code$"):
        census.sample_self_dual(2, 4, 1)


def test_sampler_rejects_negative_seed():
    # random.Random seeds from |seed|: -7 would repeat seed 7's code
    for q in (2, 4, 16):
        with pytest.raises(ValueError, match="nonnegative"):
            census.sample_self_dual(q, 8, -7)
    assert census.sample_self_dual(16, 8, 0).is_self_dual(HERMITIAN)
