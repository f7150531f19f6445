import json
import sys
import time

import pytest

from sdgqc import bounds, cli, mass
from sdgqc.cli import main
from sdgqc.codes import LinearCode, load
from sdgqc.fields import GF2, GF16


@pytest.fixture
def rep2(tmp_path):
    path = tmp_path / "rep2.txt"
    LinearCode.from_rows(GF2, 2, [(1, 1)]).save(str(path))
    return str(path)


@pytest.fixture
def herm2(tmp_path):
    path = tmp_path / "herm2.txt"
    LinearCode.from_rows(GF16, 2, [(1, 1)]).save(str(path))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_cubic(capsys, rep2, tmp_path):
    out = tmp_path / "out.txt"
    rc, _, _ = run(capsys, "construct", "--c1", rep2, "--c2", _gf4_rep(tmp_path),
                   "--construction", "cubic", "--out", str(out))
    assert rc == 0
    code = load(str(out))
    assert (code.n, code.k) == (6, 3)


def _gf4_rep(tmp_path):
    from sdgqc.fields import GF4

    path = tmp_path / "rep4.txt"
    LinearCode.from_rows(GF4, 2, [(1, 1)]).save(str(path))
    return str(path)


def test_construct_quintic_stdout(capsys, rep2, herm2):
    rc, out, _ = run(capsys, "construct", "--c1", rep2, "--c2", herm2,
                     "--construction", "quintic")
    assert rc == 0
    assert out.startswith("sdgqc-code v1")
    assert "n 10" in out


def test_construct_missing_file(capsys, rep2):
    rc, out, err = run(capsys, "construct", "--c1", rep2, "--c2", "/nonexistent",
                       "--construction", "cubic")
    assert rc == 2 and out == ""
    assert err == "error: cannot read /nonexistent: No such file or directory\n"


def test_verify(capsys, rep2, herm2, tmp_path):
    rc, out, _ = run(capsys, "verify", "--code", rep2, "--inner", "euclidean")
    assert rc == 0 and "self-dual: true" in out
    rc, out, _ = run(capsys, "verify", "--code", herm2, "--inner", "hermitian", "--json")
    assert rc == 0 and json.loads(out)["self_dual"] is True
    bad = tmp_path / "bad.txt"
    LinearCode.from_rows(GF2, 2, [(1, 0)]).save(str(bad))
    rc, _, _ = run(capsys, "verify", "--code", str(bad), "--inner", "euclidean")
    assert rc == 1
    # Type II: the repetition code of length 2 is self-dual but not doubly even
    rc, out, _ = run(capsys, "verify", "--code", rep2, "--inner", "euclidean",
                     "--type2", "--json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["self_dual"] is True and payload["type_ii"] is False


def test_mindist(capsys, rep2):
    rc, out, _ = run(capsys, "mindist", "--code", rep2, "--json")
    assert rc == 0 and json.loads(out)["min_distance"] == 2


def test_mass(capsys):
    rc, out, _ = run(capsys, "mass", "--q", "2", "--ell", "8")
    assert rc == 0 and out.strip() == "135"
    rc, out, _ = run(capsys, "mass", "--q", "2", "--ell", "8", "--type2")
    assert rc == 0 and out.strip() == "30"
    rc, out, _ = run(capsys, "mass", "--q", "16", "--ell", "4", "--json")
    assert rc == 0 and json.loads(out)["count"] == "325"
    rc, out, _ = run(capsys, "mass", "--q", "16", "--ell", "4", "--literal-paper")
    assert rc == 0 and "/" in out  # a non-integer fraction
    rc, _, _ = run(capsys, "mass", "--q", "2", "--ell", "4", "--literal-paper")
    assert rc == 2
    rc, _, _ = run(capsys, "mass", "--q", "16", "--ell", "4", "--type2")
    assert rc == 2
    rc, _, _ = run(capsys, "mass", "--q", "2", "--ell", "7")
    assert rc == 2


def test_mass_past_int_str_digit_limit(capsys):
    # N(320) over GF(16) has 15,413 digits, past the default limit of 4,300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(mass.n_sd_hermitian16(320))
        want_m = str(mass.m_sd_hermitian16(320))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 15413
    rc, out, _ = run(capsys, "mass", "--q", "16", "--ell", "320")
    assert rc == 0 and out == want + "\n"
    rc, out, _ = run(capsys, "mass", "--q", "16", "--ell", "320", "--containing", "--json")
    assert rc == 0 and json.loads(out)["count"] == want_m
    # the limit is lifted for the conversion only
    assert sys.get_int_max_str_digits() == limit


def test_census(capsys, tmp_path):
    rc, out, _ = run(capsys, "census", "--q", "2", "--n", "8")
    assert rc == 0 and out.strip() == "135"
    rc, out, _ = run(capsys, "census", "--q", "2", "--n", "8", "--type2", "--json")
    assert rc == 0 and json.loads(out)["count"] == "30"
    rc, out, _ = run(capsys, "census", "--q", "2", "--n", "4", "--containing", "1100")
    assert rc == 0 and out.strip() == "1"
    outdir = tmp_path / "codes"
    rc, out, _ = run(capsys, "census", "--q", "2", "--n", "4", "--list", str(outdir))
    assert rc == 0
    files = sorted(outdir.iterdir())
    assert len(files) == 3
    assert all(load(str(f)).is_self_dual("euclidean") for f in files)
    rc, _, _ = run(capsys, "census", "--q", "2", "--n", "7")
    assert rc == 2


def test_sample(capsys, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        rc, _, _ = run(capsys, "sample", "--q", "2", "--n", "8", "--seed", "7",
                       "--out", str(out))
        assert rc == 0
    assert out1.read_text() == out2.read_text()
    assert load(str(out1)).is_self_dual("euclidean")


def test_sample_refuses_negative_seed(capsys, tmp_path):
    # Random(-7) would draw what Random(7) draws: one code for two seeds
    out = tmp_path / "neg.txt"
    rc, stdout, err = run(capsys, "sample", "--q", "16", "--n", "8", "--seed", "-7",
                          "--out", str(out))
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == "error: seed must be nonnegative, got -7\n"


def test_bound(capsys):
    rc, out, _ = run(capsys, "bound", "--ell", "2", "--d", "1", "--mode", "literal")
    assert rc == 0 and "lhs=6 rhs=10 holds=true" in out
    rc, out, _ = run(capsys, "bound", "--ell", "2", "--d", "2", "--mode", "literal", "--json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["lhs"] == "16" and payload["holds"] is False
    rc, _, _ = run(capsys, "bound", "--ell", "3", "--d", "2", "--mode", "exact")
    assert rc == 2
    # no word of the [200, 100] code is heavier than 200: terms past it are 0
    rc, out_far, _ = run(capsys, "bound", "--ell", "40", "--d", "100000", "--mode", "exact")
    rc2, out_201, _ = run(capsys, "bound", "--ell", "40", "--d", "201", "--mode", "exact")
    assert rc == rc2 == 1 and out_far == out_201 and out_far.startswith("lhs=")


def test_bound_past_int_str_digit_limit(capsys):
    # the rhs at ell=8000 has over 6,000 digits, past the default limit of 4,300
    rep = bounds.theorem1_check(8000, 3, "exact")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lhs, rhs, delta = str(rep.lhs), str(rep.rhs), str(rep.delta)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(rhs) > 4300
    rc, out, _ = run(capsys, "bound", "--ell", "8000", "--d", "3", "--mode", "exact")
    assert rc in (0, 1) and out == f"lhs={lhs} rhs={rhs} holds={str(rep.holds).lower()}\n"
    rc, out, _ = run(capsys, "bound", "--ell", "8000", "--d", "3", "--mode", "exact", "--json")
    payload = json.loads(out)
    assert rc in (0, 1) and (payload["lhs"], payload["rhs"], payload["delta"]) == (lhs, rhs, delta)
    assert sys.get_int_max_str_digits() == limit


def test_maxdist(capsys):
    rc, out, _ = run(capsys, "maxdist", "--ell", "40", "--mode", "exact")
    assert rc == 0 and out.strip() == "24"
    rc, out, _ = run(capsys, "maxdist", "--ell", "40", "--mode", "exact", "--type2", "--json")
    assert rc == 0 and json.loads(out)["d_star"] == 22


def test_asymptote(capsys):
    rc, out, _ = run(capsys, "asymptote", "--construction", "quintic",
                     "--ells", "8,16", "--mode", "exact")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ell,d_star,delta,mode"
    assert len(lines) == 3 and lines[1].startswith("8,")


def test_entropy(capsys):
    rc, out, _ = run(capsys, "entropy", "--q", "2", "--x", "0.5")
    assert rc == 0 and abs(float(out) - 1.0) < 1e-9
    rc, out, _ = run(capsys, "entropy", "--q", "2", "--x", "0.5", "--inverse", "--json")
    assert rc == 0
    assert abs(json.loads(out)["value"] - 0.1100278644) < 1e-8
    rc, _, _ = run(capsys, "entropy", "--q", "2", "--x", "1.5")
    assert rc == 2
    for argv in (["--q", "1", "--x", "0.5", "--inverse"],
                 ["--q", "2", "--x", "nan"],
                 ["--q", "2", "--x", "nan", "--inverse"]):
        rc, out, err = run(capsys, "entropy", *argv)
        assert rc == 2 and out == "" and err.startswith("error: ")


def test_selftest(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert "FAIL" not in out
    rc, out, err = run(capsys, "selftest", "--literal-paper")
    assert rc == 1
    assert "FAIL" in out


def test_usage_errors(capsys):
    rc, _, _ = run(capsys, "bogus-command")
    assert rc == 2
    rc, _, _ = run(capsys, "mass", "--q", "3", "--ell", "4")
    assert rc == 2
    # --threads was never implemented and is no longer accepted
    for argv in (["mindist", "--code", "x"], ["census", "--q", "2", "--n", "4"],
                 ["maxdist", "--ell", "40", "--mode", "exact"]):
        rc, out, _ = run(capsys, *argv, "--threads", "1")
        assert rc == 2 and out == ""
    # the gqc inputs are interleaved already: --interleave is refused, not ignored
    rc, out, err = run(capsys, "construct", "--c1", "x", "--c2", "y",
                       "--construction", "gqc", "--interleave")
    assert rc == 2 and out == "" and "--interleave" in err
    # an empty block-length list would print a bare header
    for ells in ("", ","):
        rc, out, err = run(capsys, "asymptote", "--construction", "quintic", "--ells", ells,
                           "--mode", "exact")
        assert rc == 2 and out == "" and "needs at least one block length" in err


def test_census_refuses_huge_lengths_fast(capsys):
    # the count's lower bound alone refuses these; computing the mass
    # formula would take minutes and overflow the int-to-str digit limit
    for q, n, exponent in (("2", "20000", 49995000), ("16", "6000", 18000000)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "census", "--q", q, "--n", n)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2 and out == ""
        assert err == f"error: more than 2^{exponent} codes, limit 1000000\n"


def test_main_reuses_parser_without_leaking_state(capsys, rep2):
    calls = [
        ["maxdist", "--ell", "40", "--mode", "exact", "--json"],
        ["maxdist", "--ell", "40", "--mode", "exact"],
        ["verify", "--code", rep2, "--inner", "euclidean", "--type2", "--json"],
        ["verify", "--code", rep2, "--inner", "euclidean"],
        ["mass", "--q", "5", "--ell", "4"],
        ["mass", "--q", "2", "--ell", "8"],
        ["bogus-command"],
        ["entropy", "--q", "2", "--x", "0.5"],
        ["census", "--q", "2", "--n", "8"],
        ["census", "--q", "2", "--n", "8"],
    ]
    # each call's answer from a first call of its own, in a fresh parser
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        rc, out, _ = run(capsys, *argv)
        first.append((rc, out))
    assert [rc for rc, _ in first] == [0, 0, 1, 0, 2, 0, 2, 0, 0, 0]
    assert first[0][1] != first[1][1]  # --json and human output differ
    # the same calls back to back through the one cached parser
    assert [run(capsys, *argv)[:2] for argv in calls] == first
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
