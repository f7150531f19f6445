#!/usr/bin/env python3
"""Freeze the benchmark's goldens from the package as it is now.

    python3 bench/freeze_goldens.py

Writes bench/goldens.json for the default seed: the sha256 of every
`sample` output file and the d of every `witness` code, op by op, and the
hash of the ordered `census --list` files, which no seed changes.  It also
stores the exact-mode d* that scripts/dstar_oracle.py computes for the
cli-mix block lengths beyond tests/fixtures/dstar_fixtures.json; that
oracle takes about a minute at ell=1280.
"""

import importlib.util
import itertools
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SEED = 1
WITNESS_OPS = 64
SAMPLE_ROUNDS = 16
#: (theorem, ell) pairs the cli-mix cycle asks `maxdist --mode exact` for
DSTAR_BEYOND_FIXTURE = (("theorem1", 640), ("theorem2", 1280))


def fingerprints(cls, count: int, workdir: str) -> list:
    wl = cls(SEED, workdir, {"seed": None})
    out = []
    for op in itertools.islice(wl.ops(), count):
        _, verdict = workloads.run_op(op)
        if verdict.status != workloads.OK:
            raise SystemExit(f"{op.label}: {verdict.detail}")
        out.append(verdict.fingerprint)
    return out


def dstar_oracle() -> dict:
    spec = importlib.util.spec_from_file_location("dstar_oracle", os.path.join(ROOT, "scripts", "dstar_oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = {"theorem1": {}, "theorem2": {}}
    for theorem, ell in DSTAR_BEYOND_FIXTURE:
        out[theorem][str(ell)] = module.largest_certified_distance(ell, doubly_even=theorem == "theorem2")
    return out


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="freeze-", dir=HERE)
    try:
        goldens = {
            "seed": SEED,
            "census_list_sha256": fingerprints(workloads.Census, 1, workdir)[0],
            "witness_d": fingerprints(workloads.Witness, WITNESS_OPS, workdir),
            "sample_sha256": fingerprints(workloads.Sample, SAMPLE_ROUNDS, workdir),
            "dstar_oracle": dstar_oracle(),
        }
    finally:
        shutil.rmtree(workdir)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", workloads.GOLDENS)


if __name__ == "__main__":
    main()
