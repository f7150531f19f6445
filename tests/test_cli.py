import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from sdgqc import bounds, census, cli, codes, mass
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


def test_construct_interleaves_length_zero_inputs(capsys, tmp_path):
    # the block count is the image's length over the input's, which is 0
    # here; a code with no rows must not divide by it
    paths = []
    for q in (2, 16):
        path = tmp_path / f"empty{q}.txt"
        path.write_text(f"sdgqc-code v1\nq {q}\nn 0\nk 0\n")
        paths.append(str(path))
    rc, out, err = run(capsys, "construct", "--c1", paths[0], "--c2", paths[1],
                       "--construction", "quintic", "--interleave")
    assert (rc, out, err) == (0, "sdgqc-code v1\nq 2\nn 0\nk 0\n", "")


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


def test_verify_refuses_negative_length(capsys, tmp_path):
    bad = tmp_path / "neg.txt"
    bad.write_text("sdgqc-code v1\nq 2\nn -2\nk 0\n")
    rc, out, err = run(capsys, "verify", "--code", str(bad), "--inner", "euclidean", "--json")
    assert rc == 2 and out == ""
    assert err == f"error: bad code file {bad}: n must be nonnegative, got -2\n"


@pytest.mark.parametrize("key, raw", [("q", "+2"), ("n", "1_0"), ("n", "\u0661\u0660")])
def test_verify_refuses_non_decimal_header_values(capsys, tmp_path, key, raw):
    # int() takes each of these (the last is 10 in Arabic-Indic digits)
    header = {"q": "2", "n": "10", "k": "0", key: raw}
    bad = tmp_path / "bad.txt"
    bad.write_text("sdgqc-code v1\n" + "".join(f"{k} {v}\n" for k, v in header.items()), encoding="utf-8")
    rc, out, err = run(capsys, "verify", "--code", str(bad), "--inner", "euclidean", "--json")
    assert rc == 2 and out == ""
    assert err == f"error: bad code file {bad}: {key} must be a decimal integer, got {raw!r}\n"


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
        want = str(mass.count(16, 320))
        want_m = str(mass.count(16, 320, containing=True))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 15413
    rc, out, _ = run(capsys, "mass", "--q", "16", "--ell", "320")
    assert rc == 0 and out == want + "\n"
    rc, out, _ = run(capsys, "mass", "--q", "16", "--ell", "320", "--containing", "--json")
    assert rc == 0 and json.loads(out)["count"] == want_m
    # the process-wide limit is left as it was
    assert sys.get_int_max_str_digits() == limit


def test_mass_refuses_huge_lengths_fast(capsys):
    # the count's bit total alone refuses this, and a bound on the literal
    # form's denominator that one; the product and decimal string would
    # take days
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "mass", "--q", "2", "--ell", "100000")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert err == "error: the count exceeds 2^1249975000, past the 2^2097152 limit\n"
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "mass", "--q", "16", "--ell", "100000", "--literal-paper")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert err == "error: the literal form's denominator (12*5^ell*ell!)^49999 is past the 2^2097152 limit\n"


def test_mass_answers_the_largest_counts_fast(capsys):
    # the largest counts computed; str() of either int takes about 7 s
    for q, ell, digits in (("16", "2048", 631306), ("2", "4096", 630998)):
        t0 = time.perf_counter()
        rc, out, _ = run(capsys, "mass", "--q", q, "--ell", ell)
        assert time.perf_counter() - t0 < 2.0
        assert rc == 0 and len(out) == digits + 1 and out[:-1].isdigit() and out[0] != "0"


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


def _refused_write(capsys, *argv):
    # exit 2 with one line on stderr, no traceback and nothing on stdout
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    return err


def test_census_list_refuses_an_unwritable_directory(capsys, tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    err = _refused_write(capsys, "census", "--q", "2", "--n", "2", "--list", str(blocker))
    assert err == f"error: cannot write {blocker}: File exists\n"


def test_sample_out_refuses_a_missing_directory(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.txt"
    err = _refused_write(capsys, "sample", "--q", "2", "--n", "4", "--seed", "1", "--out", str(missing))
    assert err == f"error: cannot write {missing}: No such file or directory\n"


def test_construct_out_refuses_a_missing_directory(capsys, rep2, tmp_path):
    missing = tmp_path / "missing" / "x.txt"
    err = _refused_write(capsys, "construct", "--c1", rep2, "--c2", _gf4_rep(tmp_path),
                         "--construction", "cubic", "--out", str(missing))
    assert err == f"error: cannot write {missing}: No such file or directory\n"


def test_sample_refuses_negative_seed(capsys, tmp_path):
    # Random(-7) would draw what Random(7) draws: one code for two seeds
    out = tmp_path / "neg.txt"
    rc, stdout, err = run(capsys, "sample", "--q", "16", "--n", "8", "--seed", "-7",
                          "--out", str(out))
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == "error: seed must be nonnegative, got -7\n"


def test_sample_draw_budget_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(census, "_MAX_DRAWS", 0)
    rc, out, err = run(capsys, "sample", "--q", "2", "--n", "4", "--seed", "1")
    assert rc == 2 and out == ""
    assert err == "error: sampler drew 0 vectors without extending the code\n"


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
    rep = bounds.check(8000, 3, "exact")
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


def test_big_numbers_print_without_the_digit_limit(capsys, monkeypatch):
    # the texts are the str() of the numbers, but no command touches the
    # process-wide int-to-str digit limit to print them
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        literal = str(mass.literal(320))
        rep = bounds.check(8000, 3, "exact")
        lhs, rhs = str(rep.lhs), str(rep.rhs)
    finally:
        sys.set_int_max_str_digits(limit)

    def refuse(*args):
        raise AssertionError("the int-to-str digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    rc, out, err = run(capsys, "mass", "--q", "16", "--ell", "320", "--literal-paper")
    assert (rc, out, err) == (0, literal + "\n", "")
    rc, out, err = run(capsys, "bound", "--ell", "8000", "--d", "3", "--mode", "exact")
    assert (rc, out, err) == (0, f"lhs={lhs} rhs={rhs} holds=true\n", "")


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
    # --type2 is a binary notion, with or without the literal GF(16) form
    for extra in ([], ["--literal-paper"]):
        rc, out, err = run(capsys, "mass", "--q", "16", "--ell", "4", "--type2", *extra)
        assert rc == 2 and out == "" and err == "error: --type2 needs q=2\n"
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
    # a malformed entry is named, not reported in int()'s words
    rc, out, err = run(capsys, "asymptote", "--construction", "quintic", "--ells", "40,x", "--mode", "exact")
    assert (rc, out, err) == (2, "", "error: --ells takes comma-separated block lengths, got 'x'\n")
    # a token that is not a str is refused before either parse
    rc, out, err = run(capsys, "maxdist", "--ell", 40, "--mode", "exact")
    assert (rc, out, err) == (2, "", "error: arguments must be strings, got 40\n")


def test_census_refuses_huge_lengths_fast(capsys):
    # the count's lower bound alone refuses these; computing the mass
    # formula would take minutes and overflow the int-to-str digit limit
    for q, n, exponent in (("2", "20000", 49995000), ("16", "6000", 18000000)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "census", "--q", q, "--n", n)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2 and out == ""
        assert err == f"error: more than 2^{exponent} codes, limit 1000000\n"


def test_wide_lengths_are_refused_fast(capsys, tmp_path):
    # past 4,096 bits: GF(2) n = 4,097 (4,098 for the sampler, which wants an
    # even length), GF(16) n = 1,026, and n = 10^6, whose unit vectors alone
    # would exhaust memory
    for q, n in (("2", 4097), ("2", 4098), ("16", 1026), ("2", 10**6), ("16", 10**6)):
        bits = int(n) * (int(q).bit_length() - 1)
        msg = f"length {n} over GF({q}) takes {bits} bits, past the 4096-bit limit"
        path = tmp_path / f"wide-{q}-{n}.txt"
        path.write_text(f"sdgqc-code v1\nq {q}\nn {n}\nk 0\n")
        inner = "euclidean" if q == "2" else "hermitian"
        runs = [(["verify", "--code", str(path), "--inner", inner], f"error: bad code file {path}: {msg}\n")]
        if n % 2 == 0:
            runs.append((["sample", "--q", q, "--n", str(n), "--seed", "1"], f"error: {msg}\n"))
        for argv, want in runs:
            t0 = time.perf_counter()
            rc, out, err = run(capsys, *argv)
            assert time.perf_counter() - t0 < 1.0
            assert (rc, out, err) == (2, "", want)


def test_gqc_refuses_a_sum_past_the_width_limit(capsys, tmp_path):
    # inputs of 1,560 and 2,600 bits each fit, their 4,160-bit sum does not:
    # refused before --out is written
    c1, c2, out_path = tmp_path / "c1.txt", tmp_path / "c2.txt", tmp_path / "g.txt"
    c1.write_text("sdgqc-code v1\nq 2\nn 1560\nk 0\n")
    c2.write_text("sdgqc-code v1\nq 2\nn 2600\nk 0\n")
    rc, out, err = run(capsys, "construct", "--c1", str(c1), "--c2", str(c2), "--construction", "gqc",
                       "--out", str(out_path))
    assert (rc, out, err) == (2, "", "error: length 4160 over GF(2) takes 4160 bits, past the 4096-bit limit\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["maxdist", "--ell", "40", "--mode", "exact"], ["mass", "--q", "16", "--ell", "2048"]])
def test_a_closed_stdout_exits_141(argv):
    # the reader closes first: a short answer fails at main's flush, a long
    # one (631,307 bytes) in its print; either way main returns 128 + SIGPIPE
    # and the interpreter's last flush prints nothing
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = "import sys; from sdgqc.cli import main; sys.exit(main())"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-c", script, *argv], stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_census_refuses_lengths_without_a_count(capsys):
    # `mass` has no count for these, so the census refuses them before it searches
    for argv, msg in ((["--q", "16", "--n", "4", "--type2"], "no Type II count over GF(16)"),
                      (["--q", "2", "--n", "12", "--type2"], "length must be a positive multiple of 8, got 12")):
        rc, out, err = run(capsys, "census", *argv)
        assert rc == 2 and out == "" and err == f"error: {msg}\n"


def test_bounds_refuse_huge_lengths_fast(capsys):
    # the work estimate alone refuses these; each sum would run for minutes
    for argv, weights in ((["maxdist", "--ell", "1000000", "--mode", "exact"], 5000001),
                          (["bound", "--ell", "1000000", "--d", "400000", "--mode", "exact"], 400000),
                          (["asymptote", "--construction", "quintic", "--ells", "40,1000000",
                            "--mode", "exact"], 5000001)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2 and out == ""
        assert err == f"error: summing {weights} weights at ell=1000000 is past the limit of 4294967296 bit-steps\n"


def test_bounds_refuse_huge_ratios_fast(capsys):
    # the counting ratio's size alone refuses these, before it is built;
    # answered, `bound` at ell = 10^8 would print a 90 MB left-hand side
    for argv in (["bound", "--ell", "100000000", "--d", "3", "--mode", "exact"],
                 ["maxdist", "--ell", "100000000", "--mode", "literal"],
                 ["asymptote", "--construction", "quintic", "--ells", "100000000", "--mode", "exact"]):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2 and out == ""
        assert err == "error: the count ratio exceeds 2^49999999, past the 2^2097152 limit\n"
    rc, out, err = run(capsys, "bound", "--ell", "1048578", "--d", "3", "--mode", "exact")
    assert rc == 2 and out == ""
    assert err == "error: the count ratio exceeds 2^2097154, past the 2^2097152 limit\n"


def test_main_leaks_no_state_between_calls(capsys, rep2):
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
    first = [run(capsys, *argv)[:2] for argv in calls]
    assert [rc for rc, _ in first] == [0, 0, 1, 0, 2, 0, 2, 0, 0, 0]
    assert first[0][1] != first[1][1]  # --json and human output differ
    # the same calls again, back to back, answer the same
    assert [run(capsys, *argv)[:2] for argv in calls] == first
    assert cli.build_parser() is not cli.build_parser()


def test_parser_choices_match_the_library_vocabulary():
    # the parser lists its choices as literals, so that building it loads no
    # other module; they must stay the names the library takes
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, flag):
        return tuple(next(a for a in commands[command]._actions if flag in a.option_strings).choices)

    for command in ("bound", "maxdist", "asymptote"):
        assert choices(command, "--mode") == (bounds.LITERAL, bounds.EXACT)
    assert choices("verify", "--inner") == (codes.EUCLIDEAN, codes.HERMITIAN)


# the fingerprint's commands, and through it the benchmark's workloads
_spec = importlib.util.spec_from_file_location(
    "cli_fingerprint", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts",
                                    "cli_fingerprint.py"))
cli_fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_fingerprint)

#: values drawn for an option: well-formed ones, and ones argparse alone
#: parses or refuses (a leading "-", forms int() or float() refuses or takes)
_VALUES = {int: ["40", "8", "2", "16", "0", "+4", " 7", "4_0", "-3", "x", "", "1.5"],
           float: ["0.5", "0.25", ".5", "1e-3", "inf", "-0.5", "x", ""],
           None: ["a.txt", "40,80", "40,x", "x y", "", "-", "--json"]}


def _random_argv(rng):
    """An argv built from cli.COMMANDS, well formed or with one or more of
    the forms only argparse parses: an unknown or abbreviated command or
    option, --opt=value, a missing or bad value, a bad choice, a repeat, a
    missing required option, "--", --help or a token that is not a str."""
    if rng.random() < 0.05:
        return rng.choice([[], ["--help"], ["maxdits"], ["mass", "-h"], ["-h", "mass"], ["--", "mass"]])
    command = rng.choice(sorted(cli.COMMANDS))
    options = list(cli.COMMANDS[command][2])
    chosen = [o for o in options if (o.required and rng.random() < 0.95) or rng.random() < 0.3]
    chosen += rng.sample(options, rng.randint(0, 1))  # a repeat, now and then
    rng.shuffle(chosen)
    argv = [command]
    for name, _dest, type, choices, _required, flag, _shown in chosen:
        pool = choices if choices and rng.random() < 0.9 else _VALUES[type]
        value = [] if flag else [str(rng.choice(pool + ["fuzzy"] * (choices is not None)))]
        form = rng.random()
        if form < 0.85:
            argv += [name, *value]
        elif form < 0.89:
            argv += [name[:-1] if len(name) > 3 else name, *value]  # an abbreviation
        elif form < 0.92 and value:
            argv.append(f"{name}={value[0]}")
        elif form < 0.95:
            argv.append(name)  # a missing value, or a flag
        else:
            argv += [rng.choice(["--", "--bogus", "--help", "-h", 40]), name, *value]
    return argv


def _argparse_vars(parser, argv):
    """vars of parser.parse_args(argv), or None where it refuses argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _benchmark_argvs(monkeypatch, workdir):
    """The argv of every `cli-mix` op at seeds 1-5, and of every command in
    the first 3 `census` sweeps at those seeds, recorded in place of running."""
    commands, _inputs = cli_fingerprint.cli_mix_commands()
    import workloads  # on the path once cli_mix_commands has run

    swept = []
    monkeypatch.setattr(workloads, "cli", lambda argv: swept.append([str(a) for a in argv]))
    goldens = workloads.load_goldens()
    for seed in cli_fingerprint.SEEDS:
        for _index, op in zip(range(3), workloads.Census(seed, workdir, goldens).ops()):
            op.run()
    return [[str(a) for a in argv] for argv in commands], swept


def test_exact_parse_agrees_with_argparse(monkeypatch, tmp_path):
    # the exact-form parse builds argparse's namespace or declines, on every
    # fingerprint command and on seeded random argvs from the option table
    parser = cli.build_parser()
    mix, swept = _benchmark_argvs(monkeypatch, str(tmp_path))
    fixed = [[str(a) for a in argv] for argv in cli_fingerprint.FIXED]
    rng = random.Random(23)
    argvs = mix + swept + fixed + [_random_argv(rng) for _ in range(3000)]
    accepted = 0
    for argv in argvs:
        if not all(isinstance(token, str) for token in argv):
            # main refuses such argv before either parse, printing no data
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 2 and out.getvalue() == "", argv
            continue
        exact = cli._exact_parse(argv)
        want = _argparse_vars(parser, argv)
        assert exact is None or vars(exact) == want, argv
        accepted += exact is not None
    # the benchmark's commands take the exact path, and so do many random ones
    assert all(cli._exact_parse(argv) is not None for argv in mix + swept)
    assert len(mix) == 5 * 33 and len(swept) == 5 * 3 * 9
    assert accepted > len(argvs) // 4
