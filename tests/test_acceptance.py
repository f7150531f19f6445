"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``criterion N: pass|FAIL`` line (run pytest with ``-s`` to see them all).
The assertions are exact where the quantities are integers and use the
stated tolerances elsewhere.
"""

import math
import random
import time

import pytest
from brute_type_counts import brute_type_counts

from sdgqc import bounds, census, mass
from sdgqc.codes import EUCLIDEAN, LinearCode, extended_hamming_code
from sdgqc.constructions import (
    block_rotate,
    crt_components,
    cubic_code,
    interleave,
    is_gqc_invariant,
    quintic_code,
    quintic_map,
)
from sdgqc.fields import GF16


def report(number: int, label: str, ok: bool, why: str = "") -> None:
    print(f"criterion {number} ({label}): {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {label}" + (f": {why}" if why else "")


def test_criterion_1_census_matches_mass_formulas():
    start = time.monotonic()
    checks = []
    for n, want in [(2, 1), (4, 3), (6, 15), (8, 135)]:
        checks.append(census.census(2, n)[0] == want == mass.count(2, n))
    checks.append(census.census(2, 8, type2=True)[0] == 30 == mass.count(2, 8, type2=True))
    checks.append(census.census(2, 4, containing=(1, 1, 0, 0))[0] == 1 == mass.count(2, 4, containing=True))
    for n, want in [(2, 5), (4, 325)]:
        checks.append(census.census(16, n)[0] == want == mass.count(16, n))
    elapsed = time.monotonic() - start
    report(1, "census vs mass formulas", all(checks) and elapsed < 60)


def test_criterion_2_ratio_anchors():
    ok = True
    for ell in range(4, 65, 2):
        ok &= mass.count(2, ell) == (2 ** (ell // 2 - 1) + 1) * mass.count(2, ell, containing=True)
    for ell in range(2, 65, 2):
        ok &= mass.count(16, ell) == (2 ** (2 * ell - 2) + 1) * mass.count(16, ell, containing=True)
    report(2, "exact counting ratios, even lengths <= 64", ok)


def test_criterion_3_construction_preservation():
    rng = random.Random(20260824)
    ok = True
    for ell in (2, 4, 6):
        for _ in range(34):
            c1 = census.sample_self_dual(2, ell, rng.getrandbits(63))
            c4 = census.sample_self_dual(4, ell, rng.getrandbits(63))
            c16 = census.sample_self_dual(16, ell, rng.getrandbits(63))
            for out, blocks in ((cubic_code(c1, c4), 3), (quintic_code(c1, c16), 5)):
                ok &= out.is_self_dual(EUCLIDEAN)
                ok &= all(out.contains(block_rotate(r, blocks)) for r in out.rows)
                rows = [interleave(r, ell, blocks) for r in out.rows]
                inter = LinearCode.from_rows(out.field, out.n, rows)
                ok &= is_gqc_invariant(inter, (blocks,) * ell)
    ham = extended_hamming_code()
    c4 = census.sample_self_dual(4, 8, 1)
    c16 = census.sample_self_dual(16, 8, 1)
    ok &= cubic_code(ham, c4).is_type_ii()
    ok &= quintic_code(ham, c16).is_type_ii()
    report(3, "constructions preserve duality, rotation, GQC, Type II", ok)


def test_criterion_4_crt_identity():
    rng = random.Random(4)
    ok = True
    for _ in range(1000):
        ell = rng.randrange(1, 9)
        x = tuple(rng.randrange(2) for _ in range(ell))
        s = tuple(rng.randrange(16) for _ in range(ell))
        want = (x, tuple(GF16.mul(0x3, si) for si in s))
        ok &= crt_components(quintic_map(x, s)) == want
    report(4, "CRT round trip on 1000 random inputs", ok)


def test_criterion_5_per_weight_bounds_sound():
    a2_ok = a3_ok = True
    why = ""
    for ell in (1, 2, 3, 4):
        rows = brute_type_counts(ell, False)
        for d in range(1, 5 * ell + 1):
            _, a2, a3 = rows[d]
            a2_ok &= a2 <= bounds.a2_bound(ell, d)
            a3_ok &= a3 <= bounds.a3_bound(ell, d)
            if d % 5 == 0:
                a3_ok &= a3 == bounds.a3_bound(ell, d)
            if not why and not a2_ok:
                why = f"a2 at (ell, d, count, bound) = {(ell, d, a2, bounds.a2_bound(ell, d))}"
            if not why and not a3_ok:
                why = f"a3 at (ell, d, count, bound) = {(ell, d, a3, bounds.a3_bound(ell, d))}"
    report(5, "per-weight type bounds dominate brute-force counts", a2_ok and a3_ok, why)


def test_criterion_6_literal_inequality_fidelity():
    fail_case = bounds.check(2, 2, bounds.LITERAL)
    hold_case = bounds.check(2, 1, bounds.LITERAL)
    ok = (fail_case.lhs, fail_case.rhs, fail_case.holds) == (16, 10, False)
    ok &= (hold_case.lhs, hold_case.rhs, hold_case.holds) == (6, 10, True)
    report(6, "literal inequality at ell=2 gives 16 !< 10 and 6 < 10", ok)


def test_criterion_7_existence_witness():
    ok = True
    for ell, d in ((4, 2), (6, 2)):
        assert bounds.check(ell, d, bounds.EXACT).holds
        rng = random.Random(ell)
        found = False
        tries = 0
        while not found and tries < 10**5:
            tries += 1
            c1 = census.sample_self_dual(2, ell, rng.getrandbits(63))
            c16 = census.sample_self_dual(16, ell, rng.getrandbits(63))
            out = quintic_code(c1, c16)
            if out.is_self_dual(EUCLIDEAN) and out.min_distance() >= d:
                found = True
        ok &= found
    report(7, "random quintic search finds certified codes", ok)


def test_criterion_8_entropy_suite():
    grid_ok = all(
        abs(4 * bounds.entropy(16, i / 100) - (i / 100 * math.log2(15) + bounds.entropy(2, i / 100)))
        < 1e-12
        for i in range(1, 100)
    )
    root = bounds.inverse_entropy(2, 0.5)

    def h2(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    # the reference root is bracketed independently of sdgqc.bounds
    assert h2(0.1100278) < 0.5 < h2(0.1100279)
    root_ok = abs(root - 0.1100278644) < 1e-6
    n = 4000
    vol_ok = abs(math.log2(bounds.ball_volume(2, n, int(0.11 * n))) / n - bounds.entropy(2, 0.11)) < 0.01
    const_ok = abs(3 * root / 8 - 0.041259) < 1e-5
    failed = [
        name
        for name, ok in (("grid", grid_ok), ("root", root_ok), ("ball volume", vol_ok), ("3x/8", const_ok))
        if not ok
    ]
    why = f"{', '.join(failed)} failed; inverse_entropy(2, 0.5) = {root!r}" if failed else ""
    report(8, "entropy identities, inverse, finite-n convergence", not failed, why)


def test_criterion_9_certified_distance_regression():
    import json
    import os

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "dstar_fixtures.json")
    with open(path) as f:
        fix = json.load(f)
    ok = True
    for ell_str, want in fix["theorem1"].items():
        ok &= bounds.max_distance(int(ell_str), bounds.EXACT)[0] == want
    for ell_str, want in fix["theorem2"].items():
        ok &= bounds.max_distance(int(ell_str), bounds.EXACT, type2=True)[0] == want
    report(9, "certified distances match pre-committed oracle", ok)


def test_criterion_10_sampler_uniformity():
    _, codes = census.census(2, 4, with_codes=True)
    index = {c: i for i, c in enumerate(codes)}
    assert len(index) == 3
    critical = 9.210  # chi-square, 2 degrees of freedom, 99%
    samples = 3000
    accepted = 0
    seed_rng = random.Random(99)
    for _ in range(100):
        base = seed_rng.getrandbits(32) << 20
        counts = [0, 0, 0]
        for j in range(samples):
            counts[index[census.sample_self_dual(2, 4, base + j)]] += 1
        expected = samples / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        if chi2 <= critical:
            accepted += 1
    report(10, "sampler chi-square uniformity over 100 seeds", accepted >= 95)
