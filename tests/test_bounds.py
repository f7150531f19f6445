import json
import math
import os
from fractions import Fraction
from itertools import islice

import pytest

from sdgqc import bounds, census

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


def test_binom0():
    assert bounds.binom0(5, 2) == 10
    assert bounds.binom0(5, Fraction(2)) == 10
    assert bounds.binom0(5, Fraction(1, 2)) == 0
    assert bounds.binom0(5, -1) == 0
    assert bounds.binom0(5, 6) == 0
    with pytest.raises(ValueError):
        bounds.binom0(-1, 0)
    with pytest.raises(TypeError):
        bounds.binom0(5, 1.5)


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


def test_a1_and_a3_bounds_are_sound():
    # exhaustive check over all feasible block lengths and weights
    for ell in (1, 2, 3, 4):
        for d in range(1, 5 * ell + 1):
            a1, a2, a3 = census.count_words_by_type(ell, d)
            assert a1 <= bounds.a1_bound(ell, d)
            assert a3 <= bounds.a3_bound(ell, d)


def test_a2_bound_counterexample():
    # the printed s-only per-weight bound is not an upper bound: a single
    # nonzero GF(16) symbol expands to an even-weight block of weight 2 or
    # 4, so at ell=1 there are 5 weight-4 words but the bound allows none
    assert census.count_words_by_type(1, 4)[1] == 5
    assert bounds.a2_bound(1, 4, bounds.LITERAL) == 0
    # the restricted (isotropic-s) variant fails too, first at ell=2, d=8
    assert census.count_words_by_type(2, 8, restricted=True)[1] == 25
    assert bounds.a2_bound(2, 8, bounds.LITERAL) == 0
    # the default (exact) bound covers both
    assert bounds.a2_bound(1, 4) == 5
    assert bounds.a2_bound(2, 8) == 25


def test_exact_a2_summand_in_sound_domain():
    # the left-hand side adds the printed A2 form, which bounds the true
    # count only for e <= 2*ell; every certified d* must stay in that range
    with open(os.path.join(FIXTURES, "dstar_fixtures.json")) as f:
        fix = json.load(f)
    for table in fix.values():
        for ell_str, d_star in table.items():
            assert d_star <= 2 * int(ell_str)
    for ell in sorted({int(k) for table in fix.values() for k in table}):
        for e in range(2, 2 * ell + 1, 2):
            a2_part = bounds._term(ell, e, bounds.EXACT, 1, 0) - math.comb(5 * ell, e)
            assert a2_part == bounds.a2_bound(ell, e, bounds.LITERAL)
            assert a2_part >= bounds.a2_bound(ell, e)
        # and the range is tight: one step beyond it the printed form is 0
        assert bounds.a2_bound(ell, 2 * ell + 2, bounds.LITERAL) == 0 < bounds.a2_bound(ell, 2 * ell + 2)


def test_theorem1_literal_examples():
    rep = bounds.theorem1_check(2, 2, bounds.LITERAL)
    assert (rep.lhs, rep.rhs, rep.holds) == (16, 10, False)
    rep = bounds.theorem1_check(2, 1, bounds.LITERAL)
    assert (rep.lhs, rep.rhs, rep.holds) == (6, 10, True)


def test_theorem2_rhs():
    rep = bounds.theorem2_check(8, 1, bounds.EXACT)
    assert rep.rhs == (2**2 + 1) * (2**14 + 1) == 81925


def test_check_validation():
    with pytest.raises(ValueError):
        bounds.theorem1_check(3, 2, bounds.EXACT)
    with pytest.raises(ValueError):
        bounds.theorem1_check(2, 0, bounds.EXACT)
    with pytest.raises(ValueError):
        bounds.theorem1_check(2, 2, "fast")
    with pytest.raises(ValueError):
        bounds.theorem2_check(4, 2, bounds.EXACT)


def test_exact_mode_skips_odd_and_zero_weights():
    # lhs at d and d+1 coincide when d is odd under exact mode
    for ell in (2, 4, 8):
        for d in range(1, 12, 2):
            a = bounds.theorem1_check(ell, d, bounds.EXACT)
            b = bounds.theorem1_check(ell, d + 1, bounds.EXACT)
            assert a.lhs == b.lhs
    assert bounds.theorem1_check(2, 1, bounds.EXACT).lhs == 0


def test_max_distance_matches_frozen_oracle():
    with open(os.path.join(FIXTURES, "dstar_fixtures.json")) as f:
        fix = json.load(f)
    for key, table, type2 in (("theorem1", fix["theorem1"], False), ("theorem2", fix["theorem2"], True)):
        for ell_str, want in table.items():
            ell = int(ell_str)
            d_star, rep = bounds.max_distance(ell, bounds.EXACT, type2=type2)
            assert d_star == want
            assert rep.holds and rep.d == d_star
            worse = (bounds.theorem2_check if type2 else bounds.theorem1_check)(
                ell, d_star + 1, bounds.EXACT
            )
            assert not worse.holds


def test_summands_match_closed_form():
    # the recurrence stream against the closed-form summand, term by term
    for ell, top in [(ell, 5 * ell) for ell in (*range(2, 65, 2), 160)] + [(1280, 800)]:
        for mode in (bounds.LITERAL, bounds.EXACT):
            for type2 in (False, True) if ell % 8 == 0 else (False,):
                coef2, coef16, _ = bounds._coefficients(ell, mode, type2)
                stream = list(islice(bounds._summands(ell, mode, coef2, coef16), top + 1))
                assert stream == [bounds._term(ell, e, mode, coef2, coef16) for e in range(top + 1)]
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
        assert r.gqc_delta == pytest.approx(3 * r.delta / 8)
    with pytest.raises(ValueError):
        bounds.asymptote_table("cubic", [8], bounds.EXACT)
