import hashlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the per-command fingerprint that two checkouts' CLI answers are diffed by
_spec = importlib.util.spec_from_file_location("cli_fingerprint", os.path.join(ROOT, "scripts", "cli_fingerprint.py"))
cli_fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_fingerprint)

TMP = cli_fingerprint.TMP
INPUTS = {"rep2.txt": "sdgqc-code v1\nq 2\nn 2\nk 1\n11\n"}
COMMANDS = [
    ["maxdist", "--ell", 40, "--mode", "exact"],
    ["verify", "--code", f"{TMP}/rep2.txt", "--inner", "euclidean"],
    ["mindist", "--code", f"{TMP}/missing.txt"],
    ["census", "--q", 2, "--n", 2, "--list", f"{TMP}/list"],
]


def line(rc: int, out: str, err: str, argv: str) -> str:
    digest = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    return f"{rc} {' '.join(digest)} {argv}"


def test_fingerprint_repeats_across_temporary_directories():
    # each run writes its inputs to a new temporary directory; the path is
    # masked in argv and in the outputs, so the two runs print the same lines
    first = cli_fingerprint.fingerprint(COMMANDS, INPUTS)
    assert first == cli_fingerprint.fingerprint(COMMANDS, INPUTS)
    assert first == [
        line(0, "24\n", "", "maxdist --ell 40 --mode exact"),
        line(0, "self-dual: true\n", "", f"verify --code {TMP}/rep2.txt --inner euclidean"),
        line(2, "", f"error: cannot read {TMP}/missing.txt: No such file or directory\n",
             f"mindist --code {TMP}/missing.txt"),
        # the one code of length 2, its file following the count on stdout
        line(0, "1\ncode_000000.txt\0" + INPUTS["rep2.txt"] + "\0", "",
             f"census --q 2 --n 2 --list {TMP}/list"),
    ]


def test_fingerprint_matches_the_frozen_lines(monkeypatch):
    # every command but the --help ones, whose text argparse wraps at the
    # terminal width and words differently across Python versions; README
    # "Tests" says how to regenerate the fixture after a deliberate change.
    # The usage errors' lines are argparse's usage text too, frozen at the
    # width the fixture was written at
    monkeypatch.setenv("COLUMNS", "80")
    commands, inputs = cli_fingerprint.cli_mix_commands()
    fixed = [argv for argv in cli_fingerprint.FIXED if "--help" not in argv]
    with open(os.path.join(ROOT, "tests", "fixtures", "cli_fingerprint.txt"), encoding="utf-8") as f:
        frozen = f.read().splitlines()
    assert cli_fingerprint.fingerprint(commands + fixed, {**inputs, **cli_fingerprint.INPUTS}) == frozen
