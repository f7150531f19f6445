"""The benchmark's four workloads.

Each workload turns the benchmark seed into a deterministic stream of ops.
An op's `run` makes the program calls that are timed: `sdgqc.cli.main(argv)`
in-process with stdout captured, or the library calls the CLI itself makes.
Its `check` compares what the program produced with `oracle`, which does
not share the package's code, and with the goldens frozen for the default
seed.  A check says "failed" when the program refused or crashed, and
"wrong" when it answered but the answer is not right.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import time
from typing import Callable, NamedTuple

import oracle
import sdgqc
import sdgqc.cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DSTAR_FIXTURE = os.path.join(ROOT, "tests", "fixtures", "dstar_fixtures.json")
GOLDENS = os.path.join(HERE, "goldens.json")

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Verdict(NamedTuple):
    status: str
    detail: str = ""
    fingerprint: object = None  # what the goldens freeze for this op


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def cli(argv) -> tuple:
    """`sdgqc <argv>` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sdgqc.cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def run_op(op: Op):
    """Time op.run(), then check it untimed; returns (seconds, verdict)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a crash of the program is a failed op
        return time.perf_counter() - t0, Verdict(FAILED, f"{op.label}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    return elapsed, op.check(out)


def expect(res, want_out: str, label: str, want_rc: int = 0) -> Verdict:
    rc, out, err = res
    if rc not in (0, 1):
        return Verdict(FAILED, f"{label}: exit {rc}: {err.strip()[:200]}")
    if rc != want_rc or out != want_out:
        at = next((i for i, (a, b) in enumerate(zip(out, want_out)) if a != b), min(len(out), len(want_out)))
        return Verdict(WRONG, f"{label}: exit {rc} (want {want_rc}), stdout from char {at} "
                              f"{out[at:at + 40]!r}, want {want_out[at:at + 40]!r}")
    return Verdict(OK)


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as f:
        return json.load(f)


class Workload:
    name = ""
    #: ops in the traced pass; a fixed count, so per-op counts repeat exactly
    trace_ops = 1
    #: the loop reads the clock every this many ops, so runs hold whole cycles
    ops_per_check = 1

    def __init__(self, seed: int, workdir: str, goldens: dict):
        self.seed = seed
        self.workdir = workdir
        self.goldens = goldens

    def golden(self, key: str, index: int):
        """The frozen fingerprint of op `index`, if this is the golden seed."""
        if self.seed != self.goldens["seed"]:
            return None
        frozen = self.goldens[key]
        return frozen[index] if index < len(frozen) else None

    @classmethod
    def write_inputs(cls, workdir: str) -> None:
        """Write the files the program reads into workdir; part of set-up."""

    def ops(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Census(Workload):
    """op = one census sweep; the seed picks the order and the weight-2 word."""

    name = "census"

    def ops(self):
        rng = random.Random(self.seed)
        listdir = os.path.join(self.workdir, "census-list")
        for index in itertools.count():
            i, j = rng.sample(range(8), 2)
            word = "".join("1" if t in (i, j) else "0" for t in range(8))
            sweep = [
                *((["--q", 2, "--n", n], oracle.self_dual_count(2, n)) for n in (2, 4, 6, 8)),
                (["--q", 2, "--n", 8, "--type2"], oracle.self_dual_count(2, 8, type2=True)),
                (["--q", 2, "--n", 8, "--containing", word], oracle.self_dual_count(2, 8, containing=True)),
                *((["--q", 16, "--n", n], oracle.self_dual_count(16, n)) for n in (2, 4)),
                (["--q", 2, "--n", 6, "--list", listdir], oracle.self_dual_count(2, 6)),
            ]
            rng.shuffle(sweep)

            def run(sweep=sweep):
                return [cli(["census", *argv]) for argv, _ in sweep]

            def check(results, sweep=sweep):
                try:
                    for (argv, want), res in zip(sweep, results):
                        verdict = expect(res, f"{want}\n", label="census " + " ".join(map(str, argv)))
                        if verdict.status != OK:
                            return verdict
                    return self._check_listing(listdir, oracle.self_dual_count(2, 6))
                finally:
                    shutil.rmtree(listdir, ignore_errors=True)

            yield Op(f"census sweep {index}", run, check)

    def _check_listing(self, listdir: str, want: int) -> Verdict:
        files = sorted(os.listdir(listdir))
        if files != [f"code_{i:06d}.txt" for i in range(want)]:
            return Verdict(WRONG, f"census --list wrote {len(files)} files, want {want}")
        digest = hashlib.sha256()
        seen = set()
        for name in files:
            with open(os.path.join(listdir, name), "rb") as f:
                data = f.read()
            digest.update(name.encode() + b"\0" + data)
            q, n, rows = oracle.parse_code(data.decode())
            if (q, n) != (2, 6) or not oracle.is_self_dual(q, n, rows) or tuple(rows) in seen:
                return Verdict(WRONG, f"census --list file {name} is not a new self-dual [6,3] code")
            seen.add(tuple(rows))
        fingerprint = digest.hexdigest()
        golden = self.goldens.get("census_list_sha256")  # the listing does not depend on the seed
        if golden is not None and fingerprint != golden:
            return Verdict(WRONG, "census --list files differ from the goldens")
        return Verdict(OK, fingerprint=fingerprint)


class Witness(Workload):
    """op = one seeded quintic witness at ell=8: a [40,20] code and its d."""

    name = "witness"
    trace_ops = 3

    def ops(self):
        rng = random.Random(self.seed)
        for index in itertools.count():
            s1, s2 = rng.getrandbits(63), rng.getrandbits(63)

            def run(s1=s1, s2=s2):
                c1 = sdgqc.census.sample_self_dual(2, 8, s1)
                c2 = sdgqc.census.sample_self_dual(16, 8, s2)
                code = sdgqc.constructions.quintic_code(c1, c2)
                return code, code.is_self_dual(sdgqc.EUCLIDEAN), code.min_distance()

            def check(result, index=index):
                code, self_dual, d = result
                rows = list(code.rows)
                if code.n != 40 or len(rows) != 20 or not self_dual or not oracle.is_self_dual(2, 40, rows):
                    return Verdict(WRONG, "witness is not a self-dual [40,20] code")
                lightest = min(sum(1 for s in r if s) for r in rows)
                if d < 2 or d % 2 or d > lightest:
                    return Verdict(WRONG, f"witness d={d} is odd or above the lightest row ({lightest})")
                golden = self.golden("witness_d", index)
                if golden is not None and d != golden:
                    return Verdict(WRONG, f"witness d={d}, goldens say {golden}")
                return Verdict(OK, fingerprint=d)

            yield Op(f"witness {index}", run, check)


class Sample(Workload):
    """op = one round of seeded samples at three shapes, each read back."""

    name = "sample"
    SHAPES = ((2, 256, "euclidean"), (4, 128, "hermitian"), (16, 64, "hermitian"))

    def ops(self):
        rng = random.Random(self.seed)
        paths = [os.path.join(self.workdir, f"sample-q{q}.txt") for q, _, _ in self.SHAPES]
        for index in itertools.count():
            seeds = [rng.getrandbits(63) for _ in self.SHAPES]

            def run(seeds=seeds):
                results = []
                for (q, n, inner), seed, path in zip(self.SHAPES, seeds, paths):
                    made = cli(["sample", "--q", q, "--n", n, "--seed", seed, "--out", path])
                    results.append((made, cli(["verify", "--code", path, "--inner", inner])))
                return results

            def check(results, seeds=seeds, index=index):
                try:
                    return self._check_round(results, seeds, paths, self.golden("sample_sha256", index))
                finally:
                    for path in paths:
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(path)

            yield Op(f"sample round {index}", run, check)

    def _check_round(self, results, seeds, paths, golden) -> Verdict:
        digests = []
        for (q, n, _), seed, path, (made, verified) in zip(self.SHAPES, seeds, paths, results):
            label = f"sample --q {q} --n {n} --seed {seed}"
            for verdict in (expect(made, "", label=label), expect(verified, "self-dual: true\n", label=label)):
                if verdict.status != OK:
                    return verdict
            with open(path, "rb") as f:
                data = f.read()
            digests.append(hashlib.sha256(data).hexdigest())
            got_q, got_n, rows = oracle.parse_code(data.decode())
            if (got_q, got_n) != (q, n) or not oracle.is_self_dual(q, n, rows):
                return Verdict(WRONG, f"{label}: output is not a self-dual code of length {n}")
        if golden is not None and digests != golden:
            return Verdict(WRONG, "sample outputs differ from the goldens")
        return Verdict(OK, fingerprint=digests)


class CliMix(Workload):
    """op = one short command, cycling through a fixed list of 33."""

    name = "cli-mix"
    H8 = "sdgqc-code v1\nq 2\nn 8\nk 4\n11111111\n01010101\n00110011\n00001111\n"
    C1 = "sdgqc-code v1\nq 2\nn 4\nk 2\n1100\n0011\n"
    C2 = "sdgqc-code v1\nq 16\nn 4\nk 2\n1056\n016a\n"

    def __init__(self, seed: int, workdir: str, goldens: dict):
        super().__init__(seed, workdir, goldens)
        self.cycle = self._cycle(random.Random(self.seed))
        self.ops_per_check = len(self.cycle)
        self.trace_ops = 2 * len(self.cycle)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @classmethod
    def write_inputs(cls, workdir: str) -> None:
        for name, text in (("h8.txt", cls.H8), ("c1.txt", cls.C1), ("c2.txt", cls.C2)):
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
                f.write(text)

    def ops(self):
        for argv, check in itertools.cycle(self.cycle):
            yield Op(" ".join(map(str, argv)), lambda argv=argv: cli(argv), check)

    def _certified(self):
        """(ell, mode, type2) -> d*: the exact mode from the frozen oracle
        tables, the literal mode from `oracle`."""
        with open(DSTAR_FIXTURE, encoding="utf-8") as f:
            fixture = json.load(f)
        tables = {}
        for source in (fixture, self.goldens["dstar_oracle"]):
            for theorem, type2 in (("theorem1", False), ("theorem2", True)):
                for ell, d in source[theorem].items():
                    tables[int(ell), "exact", type2] = d

        def dstar(ell, mode, type2):
            if mode == "exact":
                return tables[ell, mode, type2]
            return oracle.largest_distance(ell, mode, type2)

        return dstar

    def _cycle(self, rng: random.Random) -> list:
        dstar = self._certified()
        cycle = []

        def add(argv, check):
            cycle.append((argv, check))

        def exactly(argv, want_out, want_rc=0):
            add(argv, lambda res: expect(res, want_out, " ".join(map(str, argv)), want_rc))

        for ell, mode, type2 in (
            (40, "exact", False), (80, "literal", False), (160, "exact", True), (320, "literal", True),
            (640, "exact", False), (1280, "exact", True), (1280, "literal", False),
        ):
            exactly(["maxdist", "--ell", ell, "--mode", mode] + (["--type2"] if type2 else []),
                    f"{dstar(ell, mode, type2)}\n")
        ells = (40, 80, 160, 320)
        for construction, mode in (("quintic", "exact"), ("quintic_type2", "literal")):
            type2 = construction == "quintic_type2"
            table = "".join(
                f"{ell},{d},{d / (5 * ell):.6f},{mode}\n" for ell, d in ((ell, dstar(ell, mode, type2)) for ell in ells)
            )
            exactly(["asymptote", "--construction", construction, "--ells", ",".join(map(str, ells)),
                     "--mode", mode], "ell,d_star,delta,mode\n" + table)
        for mode, type2 in (("exact", False), ("literal", False), ("exact", True)):
            d = rng.randint(1, 5 * 40)
            lhs, rhs = oracle.bound_sides(40, d, mode, type2)
            holds = lhs < rhs
            exactly(["bound", "--ell", 40, "--d", d, "--mode", mode] + (["--type2"] if type2 else []),
                    f"lhs={lhs} rhs={rhs} holds={str(holds).lower()}\n", 0 if holds else 1)
        with oracle.unlimited_int_digits():
            for q in (2, 16):
                for ell in ells:
                    for containing in (False, True):
                        want = str(oracle.self_dual_count(q, ell, containing=containing))
                        exactly(["mass", "--q", q, "--ell", ell] + (["--containing"] if containing else []),
                                want + "\n")
        x = rng.randint(1, 63) / 64
        add(["entropy", "--q", 2, "--x", x], self._near(oracle.entropy(2, x)))
        y = rng.randint(1, 63) / 64
        add(["entropy", "--q", 16, "--x", y, "--inverse"], self._near(oracle.inverse_entropy(16, y)))
        exactly(["verify", "--code", self.path("h8.txt"), "--inner", "euclidean", "--type2"],
                "self-dual: true\ntype-ii: true\n")
        exactly(["mindist", "--code", self.path("h8.txt")], "4\n")
        add(["construct", "--c1", self.path("c1.txt"), "--c2", self.path("c2.txt"),
             "--construction", "quintic"], self._check_quintic)
        return cycle

    @staticmethod
    def _near(want: float):
        # printed with 9 decimals; the inverse is a bisection to 1e-9
        def check(res):
            rc, out, err = res
            if rc != 0:
                return expect(res, f"{want:.9f}\n", "entropy")
            try:
                got = float(out)
            except ValueError:
                return Verdict(WRONG, f"entropy printed {out!r}")
            if abs(got - want) > 1.5e-9:
                return Verdict(WRONG, f"entropy printed {got}, want {want:.12f}")
            return Verdict(OK)

        return check

    @staticmethod
    def _check_quintic(res) -> Verdict:
        rc, out, err = res
        if rc != 0:
            return expect(res, "", "construct")
        try:
            q, n, rows = oracle.parse_code(out)
        except ValueError as e:
            return Verdict(WRONG, f"construct printed no code: {e}")
        if (q, n, len(rows)) != (2, 20, 10) or not oracle.is_self_dual(q, n, rows):
            return Verdict(WRONG, "construct did not print a self-dual [20,10] binary code")
        return Verdict(OK)


WORKLOADS = {w.name: w for w in (Census, Witness, Sample, CliMix)}
