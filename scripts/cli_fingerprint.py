#!/usr/bin/env python3
"""Print one fingerprint line per sdgqc CLI command, to diff two checkouts.

    PYTHONPATH=<checkout>/src python3 scripts/cli_fingerprint.py > fp.txt

Each line is `rc sha256(stdout) sha256(stderr) argv`.  The commands run
in-process through `sdgqc.cli.main`, in one temporary directory that holds
their input files; its path reads `<tmp>` in argv, stdout and stderr, so
two runs give the same lines whenever the CLI answers the same.  For a
`census --list DIR` command the stdout hash also covers the files written
to DIR: each name, in sorted order, and its bytes.  The
commands are the `cli-mix` benchmark cycle of bench/workloads.py at seeds
1-5, then the fixed list `FIXED`, which ends with `--help` at the top
level and for each subcommand (argparse wraps help text at the terminal
width, so run both checkouts at one width, or both redirected to files
as the usage line above shows).  Run the script once with each
checkout's src on PYTHONPATH and diff the two outputs: an empty diff means
the CLI's exit codes, stdout and stderr are bit-identical on every command.
Uses only the standard library; sdgqc comes from PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP = "<tmp>"
SEEDS = range(1, 6)

#: input files the fixed commands read, besides the `cli-mix` ones
INPUTS = {
    "c4.txt": "sdgqc-code v1\nq 4\nn 4\nk 2\n1230\n0132\n",
    "rep2.txt": "sdgqc-code v1\nq 2\nn 2\nk 1\n11\n",
    "empty2.txt": "sdgqc-code v1\nq 2\nn 0\nk 0\n",
    "empty16.txt": "sdgqc-code v1\nq 16\nn 0\nk 0\n",
    # one bit past the width limit of packed vectors
    "wide.txt": "sdgqc-code v1\nq 2\nn 4097\nk 0\n",
    # within the limit each, 4,160 bits joined
    "wide-cubic.txt": "sdgqc-code v1\nq 2\nn 1560\nk 0\n",
    "wide-quintic.txt": "sdgqc-code v1\nq 2\nn 2600\nk 0\n",
}

_BOUNDS = [
    ["bound", "--ell", ell, "--d", d, "--mode", mode, *extra]
    for ell, d in ((2, 3), (7, 5), (12, 9), (40, 25), (40, 200), (8000, 3))
    for mode in ("literal", "exact")
    for extra in ([], ["--type2"], ["--json"])
    if extra != ["--type2"] or ell % 8 == 0
]
_CONSTRUCT = [
    ["construct", "--c1", f"{TMP}/c1.txt", "--c2", f"{TMP}/{c2}", "--construction", name, *extra]
    for name, c2 in (("cubic", "c4.txt"), ("quintic", "c2.txt"))
    for extra in ([], ["--interleave"], ["--interleave", "--out", f"{TMP}/{name}.txt"])
]

FIXED = [
    ["selftest"],
    ["selftest", "--literal-paper"],
    ["mass", "--q", 16, "--ell", 4, "--literal-paper"],
    ["mass", "--q", 16, "--ell", 40, "--literal-paper", "--containing", "--json"],
    ["mass", "--q", 16, "--ell", 700, "--literal-paper"],
    ["census", "--q", 2, "--n", 8],
    ["census", "--q", 16, "--n", 4, "--json"],
    ["census", "--q", 2, "--n", 20000],
    ["census", "--q", 16, "--n", 6000],
    ["census", "--q", 16, "--n", 4, "--type2"],
    ["census", "--q", 2, "--n", 12, "--type2"],
    ["census", "--q", 2, "--n", 14],
    ["census", "--q", 2, "--n", 8, "--list", f"{TMP}/list-2-8"],
    ["census", "--q", 2, "--n", 8, "--type2", "--list", f"{TMP}/list-2-8-type2"],
    ["census", "--q", 16, "--n", 4, "--list", f"{TMP}/list-16-4"],
    ["census", "--q", 2, "--n", 8, "--containing", "11000000", "--list", f"{TMP}/list-2-8-containing"],
    ["census", "--q", 2, "--n", 10, "--list", f"{TMP}/list-2-10"],
    ["census", "--q", 16, "--n", 4, "--containing", "1111", "--list", f"{TMP}/list-16-4-containing"],
    *_BOUNDS,
    # the GF(16) counting ratio 2^(2*ell-2) + 1 at exponents 2^21 - 2 and 2^21 + 2
    ["bound", "--ell", 1048576, "--d", 3, "--mode", "exact"],
    ["bound", "--ell", 1048578, "--d", 3, "--mode", "exact"],
    ["maxdist", "--ell", 7, "--mode", "exact", "--json"],
    ["maxdist", "--ell", 12, "--mode", "literal", "--type2"],
    ["maxdist", "--ell", 16, "--mode", "literal", "--type2"],
    ["asymptote", "--construction", "quintic_type2", "--ells", "8,16,24", "--mode", "exact"],
    *_CONSTRUCT,
    ["construct", "--c1", f"{TMP}/cubic.txt", "--c2", f"{TMP}/quintic.txt", "--construction", "gqc"],
    ["construct", "--c1", f"{TMP}/cubic.txt", "--c2", f"{TMP}/quintic.txt", "--construction", "gqc",
     "--interleave"],
    ["construct", "--c1", f"{TMP}/wide-cubic.txt", "--c2", f"{TMP}/wide-quintic.txt", "--construction", "gqc"],
    ["construct", "--c1", f"{TMP}/c1.txt", "--c2", f"{TMP}/missing.txt", "--construction", "cubic"],
    ["construct", "--c1", f"{TMP}/rep2.txt", "--c2", f"{TMP}/c2.txt", "--construction", "quintic"],
    ["construct", "--c1", f"{TMP}/empty2.txt", "--c2", f"{TMP}/empty16.txt", "--construction", "quintic",
     "--interleave"],
    ["verify", "--code", f"{TMP}/c2.txt", "--inner", "hermitian", "--json"],
    ["verify", "--code", f"{TMP}/c4.txt", "--inner", "hermitian"],
    ["verify", "--code", f"{TMP}/wide.txt", "--inner", "euclidean"],
    ["sample", "--q", 2, "--n", 8, "--seed", 7],
    ["sample", "--q", 4, "--n", 6, "--seed", 1],
    ["sample", "--q", 16, "--n", 4, "--seed", 3],
    # at these seeds the sampler rejects one isotropic draw inside the span
    # so far, which only the last few rows of a code are at all likely to
    # draw (chance about q^-2 on the last row)
    ["sample", "--q", 2, "--n", 64, "--seed", 1],
    ["sample", "--q", 4, "--n", 32, "--seed", 4],
    ["sample", "--q", 16, "--n", 16, "--seed", 24],
    # the shortest even length past the width limit: 4,104 bits
    ["sample", "--q", 16, "--n", 1026, "--seed", 1],
    # forms that only argparse parses: abbreviations, --opt=value, values
    # starting with "-", repeats, "--", and the usage errors
    ["maxdist", "--ell", 40, "--mo", "exact"],
    ["bound", "--ell", 40, "--d=-3", "--mode", "exact"],
    ["entropy", "--q", 2, "--x", "-0.5"],
    ["maxdist", "--ell", 40, "--ell", 80, "--mode", "exact"],
    ["maxdist", "--ell", "--mode", "exact"],
    ["maxdist", "--ell", 40],
    ["maxdist", "--ell", 40, "--mode", "exact", "--bogus"],
    ["maxdist", "--ell", 40, "--mode", "fuzzy"],
    ["maxdist", "--ell", 40, "--mode", "exact", "--"],
    ["maxdist", "--", "--ell", 40, "--mode", "exact"],
    [],
    ["maxdits", "--ell", 40, "--mode", "exact"],
    ["asymptote", "--construction", "quintic", "--ells", "40,x", "--mode", "exact"],
    # usage text and choices: the top level's help, then each subcommand's
    ["--help"],
    *([name, "--help"] for name in ("construct", "verify", "mindist", "mass", "census", "sample", "bound", "maxdist",
                                    "asymptote", "entropy", "selftest")),
]


def cli_mix_commands() -> tuple:
    """(commands, inputs): the `cli-mix` cycle's argv at each seed of
    SEEDS, with input paths under TMP, and its input files as {name: text}."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    goldens = workloads.load_goldens()
    commands = [argv for seed in SEEDS for argv, _check in workloads.CliMix(seed, TMP, goldens).cycle]
    inputs = {"h8.txt": workloads.CliMix.H8, "c1.txt": workloads.CliMix.C1, "c2.txt": workloads.CliMix.C2}
    return commands, inputs


def listed_files(directory: str) -> bytes:
    """The files in directory, as each name in sorted order, a NUL, its
    bytes and a NUL; nothing if there is no such directory."""
    if not os.path.isdir(directory):
        return b""
    out = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out += [name.encode(), b"\0", f.read(), b"\0"]
    return b"".join(out)


def fingerprint(commands, inputs: dict) -> list:
    """One line per command: `rc sha256(stdout) sha256(stderr) argv`.  The
    commands run in-process, in order, in one fresh temporary directory
    that holds inputs ({name: text}); TMP in argv stands for that
    directory, and its path reads TMP in stdout and stderr.  After a
    command with `--list DIR`, listed_files(DIR) follows its stdout in
    the hash."""
    import sdgqc.cli

    def sha(text: str, extra: bytes = b"") -> str:
        return hashlib.sha256(text.replace(tmp, TMP).encode() + extra).hexdigest()

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                f.write(text)
        for argv in commands:
            argv = [str(a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            real = [a.replace(TMP, tmp) for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = sdgqc.cli.main(real)
            listed = listed_files(real[real.index("--list") + 1]) if "--list" in real else b""
            lines.append(f"{rc} {sha(out.getvalue(), listed)} {sha(err.getvalue())} {' '.join(argv)}")
    return lines


def main() -> int:
    commands, inputs = cli_mix_commands()
    import sdgqc

    print(f"sdgqc from {os.path.dirname(sdgqc.__file__)}", file=sys.stderr)
    for line in fingerprint(commands + FIXED, {**inputs, **INPUTS}):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
