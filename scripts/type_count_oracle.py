#!/usr/bin/env python3
"""Standalone oracle for the per-type weight counts of the quintic image.

A word of the quintic image at block length ell is the image of a pair
(x, s) in GF(2)^ell x GF(16)^ell.  Coordinate i contributes the 5-bit block

    (x_i+a0, x_i+a0+a1, x_i+a1+a2, x_i+a2+a3, x_i+a3)

where (a0, a1, a2, a3) are the coordinates of s_i over the polynomial basis
of GF(16) = GF(2)[A]/(A^4+A^3+A^2+A+1).  A word has type 1 when x and s are
both nonzero, type 2 when x is zero and s is not, type 3 when s is zero and
x is not.  The restricted counts keep only the words with an even number of
ones in x and with sum_i s_i^5 = 0 (s is Hermitian-isotropic).

The counts come from a dynamic programme over the coordinates.  Its state
is (parity of x, sum of the s_i^5, x nonzero, s nonzero), and each state
holds the number of prefixes of each weight.  This script is deliberately
self-contained and must not import the main package: its output is frozen
as a regression fixture that the package is tested against.

Writes tests/fixtures/type_counts.json: for each ell in ELLS and each mode,
the list of [a1, a2, a3] for weights d = 0, 1, ..., 5*ell.
"""

import json
import os

ELLS = [5, 8, 16]
MODULUS = 0b11111  # A^4 + A^3 + A^2 + A + 1


def gf16_mul(a, b):
    """Carry-less product of a and b reduced mod MODULUS."""
    p = 0
    for i in range(4):
        if b >> i & 1:
            p ^= a << i
    for i in (7, 6, 5, 4):
        if p >> i & 1:
            p ^= MODULUS << (i - 4)
    return p


def fifth_power(a):
    p = 1
    for _ in range(5):
        p = gf16_mul(p, a)
    return p


def block_weight(x, s):
    a = [s >> i & 1 for i in range(4)]
    block = (x ^ a[0], x ^ a[0] ^ a[1], x ^ a[1] ^ a[2], x ^ a[2] ^ a[3], x ^ a[3])
    return sum(block)


def type_counts(ell):
    """{"restricted": rows, "unrestricted": rows}, rows[d] = [a1, a2, a3]."""
    cells = [(x, s, fifth_power(s), block_weight(x, s)) for x in (0, 1) for s in range(16)]
    top = 5 * ell
    # state -> counts of prefixes by weight
    states = {(0, 0, False, False): [1] + [0] * top}
    for _ in range(ell):
        nxt = {}
        for (parity, norm, x_nz, s_nz), counts in states.items():
            for x, s, n5, w in cells:
                key = (parity ^ x, norm ^ n5, x_nz or x == 1, s_nz or s != 0)
                row = nxt.setdefault(key, [0] * (top + 1))
                for d in range(top + 1 - w):
                    if counts[d]:
                        row[d + w] += counts[d]
        states = nxt
    out = {}
    for mode in ("restricted", "unrestricted"):
        rows = [[0, 0, 0] for _ in range(top + 1)]
        for (parity, norm, x_nz, s_nz), counts in states.items():
            if mode == "restricted" and (parity or norm):
                continue
            if not (x_nz or s_nz):
                continue  # the zero word
            t = 0 if x_nz and s_nz else 1 if s_nz else 2
            for d, c in enumerate(counts):
                rows[d][t] += c
        out[mode] = rows
    return out


def main():
    out = {"restricted": {}, "unrestricted": {}}
    for ell in ELLS:
        counts = type_counts(ell)
        for mode, rows in counts.items():
            out[mode][str(ell)] = rows
            total = sum(map(sum, rows))
            print(f"ell={ell:3d}  {mode:12s}  nonzero words={total}")
    here = os.path.dirname(os.path.abspath(__file__))
    fixdir = os.path.join(here, "..", "tests", "fixtures")
    os.makedirs(fixdir, exist_ok=True)
    path = os.path.join(fixdir, "type_counts.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote", os.path.normpath(path))


if __name__ == "__main__":
    main()
