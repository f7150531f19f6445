import json
import math
import os
from itertools import islice

import pytest
from brute_type_counts import brute_type_counts

from sdgqc import bounds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


def _term(ell, e, mode, coef2, coef16):
    """The closed-form weight-e summand of the left-hand side, the reference
    for `bounds._summands`.  The A2 part is the printed
    `a2_bound(ell, e, LITERAL)` in both modes."""
    if mode == bounds.EXACT and (e == 0 or e % 2):
        return 0
    t = math.comb(5 * ell, e) + coef2 * bounds.a2_bound(ell, e, bounds.LITERAL)
    if e % 5 == 0:
        t += coef16 * math.comb(ell, e // 5)
    return t


def _a2_closed_form(ell, d, mode):
    """The reference for `a2_bound`: LITERAL the printed C(ell, d/2)*15^(d/2);
    EXACT the coefficient of z^d in (1 + 10z^2 + 5z^4)^ell, summed over the
    words with i blocks of weight 4 and d/2 - 2*i blocks of weight 2."""
    if d < 0 or d % 2:
        return 0
    half = d // 2
    if mode == bounds.LITERAL:
        return math.comb(ell, half) * 15**half
    return sum(
        math.comb(ell, i) * math.comb(ell - i, half - 2 * i) * 5**i * 10 ** (half - 2 * i)
        for i in range(min(ell, half // 2) + 1)
    )


def _power_by_multiplication(p, m):
    """The coefficients of P(z)^m by m schoolbook products."""
    out = [1]
    for _ in range(m):
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def test_per_weight_bounds():
    assert bounds.a1_bound(2, 3) == math.comb(10, 3)
    assert bounds.a2_bound(2, 3) == 0  # odd weight
    assert bounds.a2_bound(2, 3, bounds.LITERAL) == 0
    assert bounds.a2_bound(2, 2, bounds.LITERAL) == 2 * 15
    assert bounds.a2_bound(2, 4, bounds.LITERAL) == 15**2 + 0  # C(2,2)*15^2
    # exact: (1 + 10z^2 + 5z^4)^2 = 1 + 20z^2 + 110z^4 + 100z^6 + 25z^8
    assert bounds.a2_bound(2, 2) == 20
    assert bounds.a2_bound(2, 4) == 110
    assert bounds.a2_bound(2, 6) == 100
    assert bounds.a2_bound(2, 9) == 0
    with pytest.raises(ValueError):
        bounds.a2_bound(2, 2, "fast")
    assert bounds.a3_bound(2, 5) == 2
    assert bounds.a3_bound(2, 10) == 1
    assert bounds.a3_bound(2, 3) == 0
    assert bounds.a3_bound(2, 15) == bounds.a3_bound(2, -5) == 0  # past ell blocks, negative


def test_a2_bound_matches_closed_form():
    # the exact count is the x = 0 cells' coefficient stream; negative and
    # odd weights, and weights past the heaviest such word, count 0
    for ell in range(1, 13):
        for d in range(-2, 4 * ell + 3):
            for mode in (bounds.LITERAL, bounds.EXACT):
                got = bounds.a2_bound(ell, d, mode)
                assert type(got) is int and got == _a2_closed_form(ell, d, mode), (ell, d, mode)


def test_power_coefficients_match_multiplication():
    # Miller's recurrence against schoolbook products, with zero, negative
    # and vanishing-at-1 coefficients; the stream ends at z^(m*deg P)
    for p in ((1, 1), (1, 0, 15), (1, 0, 10, 0, 5), (1, -5, 10, -10, 5, -1), (1, 0, -2, 0, 1)):
        for m in range(13):
            assert list(bounds._power_coefficients(p, m)) == _power_by_multiplication(p, m), (p, m)


def test_a1_and_a3_bounds_are_sound():
    # exhaustive check over all feasible block lengths and weights
    for ell in (1, 2, 3, 4):
        rows = brute_type_counts(ell, False)
        for d in range(1, 5 * ell + 1):
            a1, a2, a3 = rows[d]
            assert a1 <= bounds.a1_bound(ell, d)
            assert a3 <= bounds.a3_bound(ell, d)


def test_a2_bound_counterexample():
    # the printed s-only per-weight bound is not an upper bound: a single
    # nonzero GF(16) symbol expands to an even-weight block of weight 2 or
    # 4, so at ell=1 there are 5 weight-4 words but the bound allows none
    assert brute_type_counts(1, False)[4][1] == 5
    assert bounds.a2_bound(1, 4, bounds.LITERAL) == 0
    # the restricted (isotropic-s) variant fails too, first at ell=2, d=8
    assert brute_type_counts(2, True)[8][1] == 25
    assert bounds.a2_bound(2, 8, bounds.LITERAL) == 0
    # the default (exact) bound covers both
    assert bounds.a2_bound(1, 4) == 5
    assert bounds.a2_bound(2, 8) == 25


def test_quintic_cells():
    # (x, s^5, block weight) for x = 0, 1 and s = 0..15: s^5 is 0, 1, 12 or
    # 13 (GF(4) inside GF(16)), and x = 1 complements the 5-bit block
    assert bounds._QUINTIC_CELLS == (
        (0, 0, 0), (0, 1, 2), (0, 1, 2), (0, 13, 2), (0, 1, 2), (0, 12, 4), (0, 13, 2), (0, 13, 2),
        (0, 1, 2), (0, 12, 4), (0, 12, 4), (0, 12, 4), (0, 13, 2), (0, 12, 4), (0, 13, 2), (0, 1, 2),
        (1, 0, 5), (1, 1, 3), (1, 1, 3), (1, 13, 3), (1, 1, 3), (1, 12, 1), (1, 13, 3), (1, 13, 3),
        (1, 1, 3), (1, 12, 1), (1, 12, 1), (1, 12, 1), (1, 13, 3), (1, 12, 1), (1, 13, 3), (1, 1, 3),
    )


def test_count_words_by_type_matches_brute_force():
    # every weight, and one weight past each end, in both modes
    for ell in (1, 2, 3, 4):
        for restricted in (False, True):
            got = [bounds.count_words_by_type(ell, d, restricted) for d in range(-1, 5 * ell + 2)]
            assert got == [(0, 0, 0), *brute_type_counts(ell, restricted), (0, 0, 0)]


def test_count_words_by_type_matches_oracle_fixture():
    # frozen by scripts/type_count_oracle.py, a dynamic programme over the
    # coordinates that shares no code with the package
    with open(os.path.join(FIXTURES, "type_counts.json")) as f:
        fix = json.load(f)
    for mode, restricted in (("unrestricted", False), ("restricted", True)):
        assert sorted(map(int, fix[mode])) == [5, 8, 16]
        for ell, rows in fix[mode].items():
            n = 5 * int(ell)
            got = [list(bounds.count_words_by_type(int(ell), d, restricted)) for d in range(n + 1)]
            assert got == rows


def test_count_words_by_type_identities():
    # unrestricted, a2_bound and a3_bound are the exact x = 0 and s = 0
    # counts, and the map is one-to-one onto the 2^(5*ell) words.
    # Restricted, I of the 16^ell vectors s are Hermitian-isotropic and
    # 2^(ell-1) of the x have even weight.
    for ell in (5, 8, 40):
        s_only = total = 0
        for d in range(1, 5 * ell + 1):
            a1, a2, a3 = bounds.count_words_by_type(ell, d)
            assert (a2, a3) == (bounds.a2_bound(ell, d), bounds.a3_bound(ell, d))
            assert a1 + a2 + a3 == math.comb(5 * ell, d)
            r1, r2, r3 = bounds.count_words_by_type(ell, d, restricted=True)
            s_only += r2
            total += r1 + r2 + r3
        isotropic = 4 ** (2 * ell - 1) + (-1) ** ell * 3 * 4 ** (ell - 1)
        assert s_only == isotropic - 1
        assert total == 2 ** (ell - 1) * isotropic - 1


def test_count_words_by_type_at_a_large_length():
    # ell = 320, d = 100: each type count is one coefficient of a stream,
    # far past the lengths brute force or the oracle fixture reach
    a1, a2, a3 = bounds.count_words_by_type(320, 100)
    assert (a2, a3) == (bounds.a2_bound(320, 100), bounds.a3_bound(320, 100))
    assert a2 == _a2_closed_form(320, 100, bounds.EXACT)
    assert a1 + a2 + a3 == math.comb(1600, 100)


def test_count_words_by_type_has_no_budget():
    # ell = 5 is past 2^(5*ell) = 2^22 words.  Weight 2: one s-only block of
    # weight 2 (5 places, 10 symbols), or two blocks with x = 1 and a
    # weight-4 s part (C(5, 2) places, 5 symbols each)
    assert bounds.count_words_by_type(5, 2) == (10 * 25, 5 * 10, 0)
    with pytest.raises(ValueError):
        bounds.count_words_by_type(0, 1)


def test_exact_a2_summand_in_sound_domain():
    # the left-hand side adds the printed A2 form, which bounds the true
    # count only for e <= 2*ell; every certified d* must stay in that range
    with open(os.path.join(FIXTURES, "dstar_fixtures.json")) as f:
        fix = json.load(f)
    for table in fix.values():
        for ell_str, d_star in table.items():
            assert d_star <= 2 * int(ell_str)
    for ell in sorted({int(k) for table in fix.values() for k in table}):
        # the A2 part of the summed stream: with coef2 = 1 less with coef2 = 0
        terms = zip(bounds._summands(ell, bounds.EXACT, 1, 0), bounds._summands(ell, bounds.EXACT, 0, 0))
        for e, (with_a2, without) in enumerate(islice(terms, 2 * ell + 1)):
            if e and not e % 2:
                a2_part = with_a2 - without
                assert a2_part == _term(ell, e, bounds.EXACT, 1, 0) - math.comb(5 * ell, e)
                assert a2_part == bounds.a2_bound(ell, e, bounds.LITERAL)
                assert a2_part >= bounds.a2_bound(ell, e)
        # and the range is tight: one step beyond it the printed form is 0
        assert bounds.a2_bound(ell, 2 * ell + 2, bounds.LITERAL) == 0 < bounds.a2_bound(ell, 2 * ell + 2)


def test_theorem1_literal_examples():
    rep = bounds.check(2, 2, bounds.LITERAL)
    assert (rep.lhs, rep.rhs, rep.holds) == (16, 10, False)
    rep = bounds.check(2, 1, bounds.LITERAL)
    assert (rep.lhs, rep.rhs, rep.holds) == (6, 10, True)


def test_theorem2_rhs():
    rep = bounds.check(8, 1, bounds.EXACT, type2=True)
    assert rep.rhs == (2**2 + 1) * (2**14 + 1) == 81925


def test_check_validation():
    with pytest.raises(ValueError):
        bounds.check(3, 2, bounds.EXACT)
    with pytest.raises(ValueError):
        bounds.check(2, 0, bounds.EXACT)
    with pytest.raises(ValueError):
        bounds.check(2, 2, "fast")
    with pytest.raises(ValueError):
        bounds.check(4, 2, bounds.EXACT, type2=True)


def test_exact_mode_skips_odd_and_zero_weights():
    # lhs at d and d+1 coincide when d is odd under exact mode
    for ell in (2, 4, 8):
        for d in range(1, 12, 2):
            a = bounds.check(ell, d, bounds.EXACT)
            b = bounds.check(ell, d + 1, bounds.EXACT)
            assert a.lhs == b.lhs
    assert bounds.check(2, 1, bounds.EXACT).lhs == 0


def test_max_distance_matches_frozen_oracle():
    with open(os.path.join(FIXTURES, "dstar_fixtures.json")) as f:
        fix = json.load(f)
    for key, table, type2 in (("theorem1", fix["theorem1"], False), ("theorem2", fix["theorem2"], True)):
        for ell_str, want in table.items():
            ell = int(ell_str)
            d_star, rep = bounds.max_distance(ell, bounds.EXACT, type2=type2)
            assert d_star == want
            assert rep.holds and rep.d == d_star
            worse = bounds.check(ell, d_star + 1, bounds.EXACT, type2=type2)
            assert not worse.holds


def test_bound_readers_agree():
    # max_distance and check read one left-hand side: the report at
    # d* is the check's, and past the heaviest weight 5*ell no term is added
    with open(os.path.join(FIXTURES, "dstar_fixtures.json")) as f:
        fix = json.load(f)
    for ell in sorted({int(k) for table in fix.values() for k in table}):
        for mode in (bounds.LITERAL, bounds.EXACT):
            for type2 in (False, True):
                d_star, rep = bounds.max_distance(ell, mode, type2=type2)
                assert d_star and rep == bounds.check(ell, d_star, mode, type2=type2)
                # at 5*ell + 1 every weight is summed: the binomial sums in
                # closed form, over even e >= 2 only in EXACT mode
                coef2, coef16, _ = bounds._coefficients(ell, mode, type2)
                if mode == bounds.LITERAL:
                    whole = 2 ** (5 * ell) + coef2 * 16**ell + coef16 * 2**ell
                else:
                    whole = 2 ** (5 * ell - 1) - 1 + coef2 * (16**ell - 1) + coef16 * (2 ** (ell - 1) - 1)
                for d in (5 * ell + 1, 5 * ell + 2, 10 * ell, 10**9):
                    assert bounds.check(ell, d, mode, type2=type2).lhs == whole


def test_work_cap():
    # the estimate is the weights summed times 5*ell bits: 13,106 is the
    # largest even ell at which max_distance's 5*ell + 1 weights fit under
    # 2^32, and a check that sums few weights is accepted at any length.
    # The refusal comes before any sum, and the accepted streams here are
    # never read.
    assert bounds._MAX_WORK == 2**32
    for ell, type2 in ((13106, False), (13104, True)):
        bounds._sides(ell, bounds.EXACT, type2, 5 * ell + 1)
        with pytest.raises(ValueError, match="past the limit"):
            bounds._sides(ell + 8, bounds.EXACT, type2, 5 * ell + 41)
    bounds._sides(10**6, bounds.EXACT, False, 858)
    with pytest.raises(ValueError, match="summing 859 weights at ell=1000000"):
        bounds._sides(10**6, bounds.EXACT, False, 859)
    assert bounds.check(10**6, 3, bounds.LITERAL).d == 3
    with pytest.raises(ValueError, match="past the limit"):
        bounds.max_distance(10**6, bounds.LITERAL, type2=True)


def test_summands_match_closed_form():
    # the recurrence stream against the closed-form summand, term by term
    for ell, top in [(ell, 5 * ell) for ell in (*range(2, 65, 2), 160)] + [(1280, 800)]:
        for mode in (bounds.LITERAL, bounds.EXACT):
            for type2 in (False, True) if ell % 8 == 0 else (False,):
                coef2, coef16, _ = bounds._coefficients(ell, mode, type2)
                stream = list(islice(bounds._summands(ell, mode, coef2, coef16), top + 1))
                assert stream == [_term(ell, e, mode, coef2, coef16) for e in range(top + 1)]
    # the stream ends at the heaviest weight 5*ell
    assert len(list(bounds._summands(6, bounds.EXACT, 1, 1))) == 31


def test_max_distance_matches_bench_oracle_goldens():
    # d* past the fixture's ell <= 320, as scripts/dstar_oracle.py computed it
    with open(os.path.join(ROOT, "bench", "goldens.json")) as f:
        oracle = json.load(f)["dstar_oracle"]
    cases = [(int(ell), want, key == "theorem2") for key, table in oracle.items() for ell, want in table.items()]
    assert sorted(ell for ell, _, _ in cases) == [640, 1280]
    for ell, want, type2 in cases:
        assert bounds.max_distance(ell, bounds.EXACT, type2=type2)[0] == want


def test_max_distance_monotone_in_ell():
    prev = 0
    for ell in range(2, 33, 2):
        d_star, _ = bounds.max_distance(ell, bounds.EXACT)
        assert d_star >= prev
        prev = d_star


def test_mode_discrepancies_match_fixture():
    with open(os.path.join(FIXTURES, "mode_discrepancies.json")) as f:
        fix = json.load(f)
    got = bounds.mode_discrepancies(fix["max_ell"])
    assert [list(p) for p in got] == fix["pairs"]
    assert [2, 2] in fix["pairs"]


def test_entropy_values():
    assert bounds.entropy(2, 0.5) == pytest.approx(1.0)
    assert bounds.entropy(2, 0.0) == 0.0
    assert bounds.entropy(16, 15 / 16) == pytest.approx(1.0)
    assert bounds.entropy(2, 0.11) == pytest.approx(0.4999, abs=5e-4)
    with pytest.raises(ValueError):
        bounds.entropy(2, 1.5)
    with pytest.raises(ValueError):
        bounds.entropy(1, 0.5)


def test_entropy_identity_grid():
    # H16(x) relates to H2(x) via the alphabet-size change of base
    for i in range(1, 100):
        x = i / 100
        lhs = 4 * bounds.entropy(16, x)
        rhs = x * math.log2(15) + bounds.entropy(2, x)
        assert abs(lhs - rhs) < 1e-12


def test_inverse_entropy_roundtrip():
    for q in (2, 16):
        for y in (0.1, 0.25, 0.5, 0.75, 0.99):
            x = bounds.inverse_entropy(q, y)
            assert bounds.entropy(q, x) == pytest.approx(y, abs=1e-7)
    assert bounds.inverse_entropy(2, 0.5) == pytest.approx(0.1100278644, abs=1e-8)
    with pytest.raises(ValueError):
        bounds.inverse_entropy(2, 1.5)


def test_ball_volume():
    assert bounds.ball_volume(2, 4, 0) == 1
    assert bounds.ball_volume(2, 4, 1) == 5
    assert bounds.ball_volume(2, 4, 4) == 16
    assert bounds.ball_volume(16, 3, 1) == 1 + 3 * 15
    with pytest.raises(ValueError):
        bounds.ball_volume(2, 4, 5)


def test_ball_volume_entropy_asymptotic():
    # log_q(ball volume) / n approaches entropy(q, r/n)
    n = 4000
    for q, delta in ((2, 0.11), (16, 0.3)):
        vol = bounds.ball_volume(q, n, int(delta * n))
        rate = math.log(vol, q) / n
        assert abs(rate - bounds.entropy(q, delta)) < 0.01


def test_asymptote_table():
    rows = bounds.asymptote_table("quintic", [8, 16], bounds.EXACT)
    assert [r.ell for r in rows] == [8, 16]
    for r in rows:
        d_star, _ = bounds.max_distance(r.ell, bounds.EXACT)
        assert r.d_star == d_star
        assert r.delta == d_star / (5 * r.ell)
    with pytest.raises(ValueError):
        bounds.asymptote_table("cubic", [8], bounds.EXACT)
