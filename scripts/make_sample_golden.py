#!/usr/bin/env python3
"""Regenerate the frozen sampler outputs.

`sample_self_dual(q, n, seed)` is bit-exact reproducible per seed: that is
the repository's reproducibility contract.  This script freezes the sha256
of `sample_self_dual(q, n, seed).dump()` for a fixed set of triples, so that
any change to the sampler or to the linear algebra beneath it must
reproduce the same codes byte for byte.  Rerun it only when the contract
itself is intentionally changed.

    PYTHONPATH=src python3 scripts/make_sample_golden.py
"""

import hashlib
import json
import os

from sdgqc.census import sample_self_dual

TRIPLES = [
    (2, 2, 0), (2, 6, 1), (2, 8, 7), (2, 16, 3), (2, 32, 11), (2, 64, 5), (2, 64, 2**63 - 1),
    (4, 2, 0), (4, 4, 1), (4, 10, 2), (4, 16, 3), (4, 32, 9), (4, 64, 7),
    (16, 2, 0), (16, 4, 1), (16, 8, 2), (16, 12, 3), (16, 24, 4), (16, 40, 5), (16, 64, 7),
]


def main():
    cases = [
        {"q": q, "n": n, "seed": seed,
         "sha256": hashlib.sha256(sample_self_dual(q, n, seed).dump().encode()).hexdigest()}
        for q, n, seed in TRIPLES
    ]
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "..", "tests", "fixtures", "sample_golden.json")
    with open(path, "w") as f:
        json.dump({"cases": cases}, f, indent=2)
        f.write("\n")
    print(f"froze {len(cases)} sampler outputs ->", os.path.normpath(path))


if __name__ == "__main__":
    main()
