"""Command-line interface: one executable, subcommand per operation.

Exit codes: 0 success, 1 a verification/bound predicate is false (or a
selftest check fails), 2 usage or input-format errors.  Diagnostics go to
stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import bounds, census, codes, constructions, mass
from .codes import EUCLIDEAN, HERMITIAN, LinearCode
from .fields import field_for


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _digits(val) -> str:
    """str(val) for a computed number, which can run past the interpreter's
    int-to-str digit limit (4300 digits by default); the limit is lifted
    for this one conversion only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return str(val)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(val)
    finally:
        sys.set_int_max_str_digits(limit)


def _load_code(path: str) -> LinearCode:
    try:
        return codes.load(path)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")
    except ValueError as e:
        raise UsageError(f"bad code file {path}: {e}")


class UsageError(Exception):
    pass


def _write_code(code: LinearCode, out) -> None:
    if out:
        code.save(out)
    else:
        sys.stdout.write(code.dump())


# -- subcommand handlers -----------------------------------------------------


def cmd_construct(args) -> int:
    if args.construction == "gqc" and args.interleave:
        raise UsageError("--interleave does not apply to --construction gqc: its inputs are "
                         "interleaved already")
    c1 = _load_code(args.c1)
    c2 = _load_code(args.c2)
    if args.construction == "cubic":
        out = constructions.cubic_code(c1, c2)
        blocks = 3
    elif args.construction == "quintic":
        out = constructions.quintic_code(c1, c2)
        blocks = 5
    else:  # gqc: direct sum of two interleaved binary inputs
        code, _profile = constructions.direct_sum_gqc(c1, c2)
        _write_code(code, args.out)
        return 0
    if args.interleave:
        ell = c1.n
        rows = [constructions.interleave(r, ell, blocks) for r in out.rows]
        out = LinearCode.from_rows(out.field, out.n, rows)
    _write_code(out, args.out)
    return 0


def cmd_verify(args) -> int:
    code = _load_code(args.code)
    sd = code.is_self_dual(args.inner)
    payload = {"q": code.field.q, "n": code.n, "k": code.k, "self_dual": sd}
    lines = [f"self-dual: {str(sd).lower()}"]
    ok = sd
    if args.type2:
        t2 = code.is_type_ii()
        payload["type_ii"] = t2
        lines.append(f"type-ii: {str(t2).lower()}")
        ok = ok and t2
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def cmd_mindist(args) -> int:
    code = _load_code(args.code)
    d = code.min_distance()
    _emit(args, {"n": code.n, "k": code.k, "min_distance": d}, str(d))
    return 0


def cmd_mass(args) -> int:
    ell = args.ell
    if args.literal_paper:
        if args.q != 16:
            raise UsageError("--literal-paper only applies to q=16")
        val = (
            mass.m_sd_hermitian16_literal(ell)
            if args.containing
            else mass.n_sd_hermitian16_literal(ell)
        )
        text = _digits(val)
        _emit(args, {"q": 16, "ell": ell, "literal": text}, text)
        return 0
    if args.q == 2:
        if args.type2:
            val = mass.s_type2(ell) if args.containing else mass.t_type2(ell)
        else:
            val = mass.m_sd_binary(ell) if args.containing else mass.n_sd_binary(ell)
    else:
        if args.type2:
            raise UsageError("--type2 needs q=2")
        val = mass.m_sd_hermitian16(ell) if args.containing else mass.n_sd_hermitian16(ell)
    text = _digits(val)
    _emit(args, {"q": args.q, "ell": ell, "count": text}, text)
    return 0


def cmd_census(args) -> int:
    containing = None
    if args.containing is not None:
        containing = codes.parse_symbols(field_for(args.q), args.containing)
    want_list = args.list is not None
    count, found = census.census(
        args.q, args.n, type2=args.type2, containing=containing, with_codes=want_list
    )
    if want_list:
        os.makedirs(args.list, exist_ok=True)
        for i, code in enumerate(found):
            code.save(os.path.join(args.list, f"code_{i:06d}.txt"))
    _emit(args, {"q": args.q, "n": args.n, "count": str(count)}, str(count))
    return 0


def cmd_sample(args) -> int:
    code = census.sample_self_dual(args.q, args.n, args.seed)
    _write_code(code, args.out)
    return 0


def cmd_bound(args) -> int:
    check = bounds.theorem2_check if args.type2 else bounds.theorem1_check
    rep = check(args.ell, args.d, args.mode)
    payload = {
        "ell": rep.ell,
        "d": rep.d,
        "mode": rep.mode,
        "type2": rep.type2,
        "lhs": _digits(rep.lhs),
        "rhs": _digits(rep.rhs),
        "holds": rep.holds,
        "delta": _digits(rep.delta),
    }
    human = f"lhs={payload['lhs']} rhs={payload['rhs']} holds={str(rep.holds).lower()}"
    _emit(args, payload, human)
    return 0 if rep.holds else 1


def cmd_maxdist(args) -> int:
    d_star, rep = bounds.max_distance(args.ell, args.mode, type2=args.type2)
    payload = {"ell": args.ell, "mode": args.mode, "type2": args.type2, "d_star": d_star}
    if rep is not None:
        payload["delta"] = str(Fraction(d_star, 5 * args.ell))
    _emit(args, payload, str(d_star))
    return 0


def cmd_asymptote(args) -> int:
    ells = [int(t) for t in args.ells.split(",") if t]
    if not ells:
        raise UsageError("--ells needs at least one block length")
    rows = bounds.asymptote_table(args.construction, ells, args.mode)
    print("ell,d_star,delta,mode")
    for r in rows:
        print(f"{r.ell},{r.d_star},{r.delta:.6f},{r.mode}")
    return 0


def cmd_entropy(args) -> int:
    if args.inverse:
        val = bounds.inverse_entropy(args.q, args.x)
    else:
        val = bounds.entropy(args.q, args.x)
    _emit(args, {"q": args.q, "x": args.x, "value": val}, f"{val:.9f}")
    return 0


def cmd_selftest(args) -> int:
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    for n, want in [(2, 1), (4, 3), (6, 15), (8, 135)]:
        got, _ = census.census(2, n)
        check(f"binary census n={n} == {want}", got == want == mass.n_sd_binary(n))
    got, _ = census.census(2, 8, type2=True)
    check("type-II census n=8 == 30", got == 30 == mass.t_type2(8))
    got, _ = census.census(2, 4, containing=(1, 1, 0, 0))
    check("binary containing-census n=4 == 1", got == 1 == mass.m_sd_binary(4))
    for n in (2, 4):
        got, _ = census.census(16, n)
        if args.literal_paper:
            want = mass.n_sd_hermitian16_literal(n)
        else:
            want = mass.n_sd_hermitian16(n)
        check(f"GF(16) census n={n} matches formula", got == want)
    for ell in range(4, 33, 2):
        if mass.n_sd_binary(ell) != mass.binary_ratio(ell) * mass.m_sd_binary(ell):
            check(f"binary ratio ell={ell}", False)
            break
    else:
        check("binary ratio anchor (ell<=32)", True)
    for ell in range(2, 33, 2):
        if mass.n_sd_hermitian16(ell) != mass.hermitian16_ratio(ell) * mass.m_sd_hermitian16(ell):
            check(f"GF(16) ratio ell={ell}", False)
            break
    else:
        check("GF(16) ratio anchor (ell<=32)", True)
    grid_ok = all(
        abs(4 * bounds.entropy(16, i / 100) - (i / 100 * math.log2(15) + bounds.entropy(2, i / 100))) < 1e-12
        for i in range(1, 100)
    )
    check("entropy identity on 99-point grid", grid_ok)
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sdgqc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("construct", cmd_construct, help="build a code from two input codes")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.add_argument("--construction", required=True, choices=["cubic", "quintic", "gqc"])
    sp.add_argument("--interleave", action="store_true")
    sp.add_argument("--out")

    sp = add("verify", cmd_verify, help="check self-duality (and optionally Type II)")
    sp.add_argument("--code", required=True)
    sp.add_argument("--inner", required=True, choices=[EUCLIDEAN, HERMITIAN])
    sp.add_argument("--type2", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = add("mindist", cmd_mindist, help="exact minimum distance")
    sp.add_argument("--code", required=True)
    sp.add_argument("--json", action="store_true")

    sp = add("mass", cmd_mass, help="exact counting-formula value")
    sp.add_argument("--q", type=int, required=True, choices=[2, 16])
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--type2", action="store_true")
    sp.add_argument("--containing", action="store_true")
    sp.add_argument("--literal-paper", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = add("census", cmd_census, help="exhaustive self-dual code census")
    sp.add_argument("--q", type=int, required=True, choices=[2, 16])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--type2", action="store_true")
    sp.add_argument("--containing", metavar="SYMS")
    sp.add_argument("--list", metavar="DIR")
    sp.add_argument("--json", action="store_true")

    sp = add("sample", cmd_sample, help="seeded random self-dual code")
    sp.add_argument("--q", type=int, required=True, choices=[2, 4, 16])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")

    sp = add("bound", cmd_bound, help="evaluate one existence inequality")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--mode", required=True, choices=[bounds.LITERAL, bounds.EXACT])
    sp.add_argument("--type2", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = add("maxdist", cmd_maxdist, help="largest certified distance")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--mode", required=True, choices=[bounds.LITERAL, bounds.EXACT])
    sp.add_argument("--type2", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = add("asymptote", cmd_asymptote, help="CSV table of certified relative distances")
    sp.add_argument("--construction", required=True, choices=["quintic", "quintic_type2"])
    sp.add_argument("--ells", required=True, help="comma-separated block lengths")
    sp.add_argument("--mode", required=True, choices=[bounds.LITERAL, bounds.EXACT])

    sp = add("entropy", cmd_entropy, help="q-ary entropy or its inverse")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--inverse", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = add("selftest", cmd_selftest, help="census-vs-formula and identity checks")
    sp.add_argument("--literal-paper", action="store_true")

    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parse_args leaves no
    state in it, so one parser serves every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, codes.EnumerationBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
