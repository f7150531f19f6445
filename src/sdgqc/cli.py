"""Command-line interface: one executable, subcommand per operation.

Exit codes: 0 success, 1 a verification/bound predicate is false (or a
selftest check fails), 2 usage or input-format errors, 141 stdout's reader
has gone.  Diagnostics go to stderr, data to stdout.
"""

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

# Each handler imports the modules it uses, so that importing this module
# and building the parser load no other module of the package; argparse is
# imported only by build_parser, for what _exact_parse declines.


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _load_code(path: str):
    from . import codes

    try:
        return codes.load(path)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}")
    except ValueError as e:
        raise ValueError(f"bad code file {path}: {e}")


def _write_code(code, out) -> None:
    if out:
        try:
            code.save(out)
        except OSError as e:
            raise ValueError(f"cannot write {out}: {e.strerror}")
    else:
        sys.stdout.write(code.dump())


# -- subcommand handlers -----------------------------------------------------


def cmd_construct(args) -> int:
    from . import constructions
    from .codes import LinearCode

    if args.construction == "gqc":  # direct sum of two interleaved binary inputs
        if args.interleave:
            raise ValueError("--interleave does not apply to --construction gqc: its inputs are "
                             "interleaved already")
        code, _profile = constructions.direct_sum_gqc(_load_code(args.c1), _load_code(args.c2))
        _write_code(code, args.out)
        return 0
    c1 = _load_code(args.c1)
    build = constructions.cubic_code if args.construction == "cubic" else constructions.quintic_code
    out = build(c1, _load_code(args.c2))
    if args.interleave:
        rows = [constructions.interleave(r, c1.n, out.n // c1.n) for r in out.rows]
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
    from . import mass

    ell = args.ell
    if args.type2 and args.q != 2:
        raise ValueError("--type2 needs q=2")
    if args.literal_paper:
        if args.q != 16:
            raise ValueError("--literal-paper only applies to q=16")
        text = mass.decimal_text(mass.literal(ell, containing=args.containing))
        _emit(args, {"q": 16, "ell": ell, "literal": text}, text)
        return 0
    text = mass.count_digits(args.q, ell, containing=args.containing, type2=args.type2)
    _emit(args, {"q": args.q, "ell": ell, "count": text}, text)
    return 0


def cmd_census(args) -> int:
    from . import census, codes
    from .fields import field_for

    containing = None
    if args.containing is not None:
        containing = codes.parse_symbols(field_for(args.q), args.containing)
    want_list = args.list is not None
    count, found = census.census(
        args.q, args.n, type2=args.type2, containing=containing, with_codes=want_list
    )
    if want_list:
        try:
            os.makedirs(args.list, exist_ok=True)
            for i, code in enumerate(found):
                code.save(os.path.join(args.list, f"code_{i:06d}.txt"))
        except OSError as e:
            raise ValueError(f"cannot write {e.filename or args.list}: {e.strerror}")
    _emit(args, {"q": args.q, "n": args.n, "count": str(count)}, str(count))
    return 0


def cmd_sample(args) -> int:
    from . import census

    code = census.sample_self_dual(args.q, args.n, args.seed)
    _write_code(code, args.out)
    return 0


def cmd_bound(args) -> int:
    from . import bounds, mass

    rep = bounds.check(args.ell, args.d, args.mode, type2=args.type2)
    payload = {
        "ell": rep.ell,
        "d": rep.d,
        "mode": rep.mode,
        "type2": rep.type2,
        "lhs": mass.decimal_text(rep.lhs),
        "rhs": mass.decimal_text(rep.rhs),
        "holds": rep.holds,
        "delta": str(rep.delta),
    }
    human = f"lhs={payload['lhs']} rhs={payload['rhs']} holds={str(rep.holds).lower()}"
    _emit(args, payload, human)
    return 0 if rep.holds else 1


def cmd_maxdist(args) -> int:
    from . import bounds

    d_star, rep = bounds.max_distance(args.ell, args.mode, type2=args.type2)
    payload = {"ell": args.ell, "mode": args.mode, "type2": args.type2, "d_star": d_star}
    if rep is not None:
        payload["delta"] = str(rep.delta)
    _emit(args, payload, str(d_star))
    return 0


def cmd_asymptote(args) -> int:
    from . import bounds

    ells = []
    for t in filter(None, args.ells.split(",")):
        try:
            ells.append(int(t))
        except ValueError:
            raise ValueError(f"--ells takes comma-separated block lengths, got {t!r}")
    if not ells:
        raise ValueError("--ells needs at least one block length")
    rows = bounds.asymptote_table(args.construction, ells, args.mode)
    print("ell,d_star,delta,mode")
    for r in rows:
        print(f"{r.ell},{r.d_star},{r.delta:.6f},{r.mode}")
    return 0


def cmd_entropy(args) -> int:
    from . import bounds

    if args.inverse:
        val = bounds.inverse_entropy(args.q, args.x)
    else:
        val = bounds.entropy(args.q, args.x)
    _emit(args, {"q": args.q, "x": args.x, "value": val}, f"{val:.9f}")
    return 0


def cmd_selftest(args) -> int:
    import math

    from . import bounds, census, mass

    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    for n, want in [(2, 1), (4, 3), (6, 15), (8, 135)]:
        got, _ = census.census(2, n)
        check(f"binary census n={n} == {want}", got == want == mass.count(2, n))
    got, _ = census.census(2, 8, type2=True)
    check("type-II census n=8 == 30", got == 30 == mass.count(2, 8, type2=True))
    got, _ = census.census(2, 4, containing=(1, 1, 0, 0))
    check("binary containing-census n=4 == 1", got == 1 == mass.count(2, 4, containing=True))
    for n in (2, 4):
        got, _ = census.census(16, n)
        want = mass.literal(n) if args.literal_paper else mass.count(16, n)
        check(f"GF(16) census n={n} matches formula", got == want)
    for q, name, first in ((2, "binary", 4), (16, "GF(16)", 2)):
        bad = next((ell for ell in range(first, 33, 2)
                    if mass.count(q, ell) != mass.ratio(q, ell) * mass.count(q, ell, containing=True)), None)
        check(f"{name} ratio ell={bad}" if bad else f"{name} ratio anchor (ell<=32)", bad is None)
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


#: one option of COMMANDS: flag marks a store_true option, and shown holds
#: the keywords only the help text reads (metavar, help)
Option = namedtuple("Option", "name dest type choices required flag shown")


def _opt(name, type=None, choices=None, required=False, flag=False, **shown):
    """An Option whose dest is derived from its name as argparse derives it."""
    return Option(name, name[2:].replace("-", "_"), type, choices, required, flag, shown)


_MODE = _opt("--mode", required=True, choices=["literal", "exact"])
_ELL, _N = _opt("--ell", int, required=True), _opt("--n", int, required=True)
_TYPE2, _JSON = _opt("--type2", flag=True), _opt("--json", flag=True)

#: every subcommand, one row each: name -> (handler, help, options);
#: build_parser and _exact_parse both read it
COMMANDS = {
    "construct": (cmd_construct, "build a code from two input codes", (
        _opt("--c1", required=True), _opt("--c2", required=True),
        _opt("--construction", required=True, choices=["cubic", "quintic", "gqc"]),
        _opt("--interleave", flag=True), _opt("--out"))),
    "verify": (cmd_verify, "check self-duality (and optionally Type II)", (
        _opt("--code", required=True), _opt("--inner", required=True, choices=["euclidean", "hermitian"]),
        _TYPE2, _JSON)),
    "mindist": (cmd_mindist, "exact minimum distance", (_opt("--code", required=True), _JSON)),
    "mass": (cmd_mass, "exact counting-formula value", (
        _opt("--q", int, required=True, choices=[2, 16]), _ELL, _TYPE2, _opt("--containing", flag=True),
        _opt("--literal-paper", flag=True), _JSON)),
    "census": (cmd_census, "exhaustive self-dual code census", (
        _opt("--q", int, required=True, choices=[2, 16]), _N, _TYPE2, _opt("--containing", metavar="SYMS"),
        _opt("--list", metavar="DIR"), _JSON)),
    "sample": (cmd_sample, "seeded random self-dual code", (
        _opt("--q", int, required=True, choices=[2, 4, 16]), _N, _opt("--seed", int, required=True),
        _opt("--out"))),
    "bound": (cmd_bound, "evaluate one existence inequality", (
        _ELL, _opt("--d", int, required=True), _MODE, _TYPE2, _JSON)),
    "maxdist": (cmd_maxdist, "largest certified distance", (_ELL, _MODE, _TYPE2, _JSON)),
    "asymptote": (cmd_asymptote, "CSV table of certified relative distances", (
        _opt("--construction", required=True, choices=["quintic", "quintic_type2"]),
        _opt("--ells", required=True, help="comma-separated block lengths"), _MODE)),
    "entropy": (cmd_entropy, "q-ary entropy or its inverse", (
        _opt("--q", int, required=True), _opt("--x", float, required=True), _opt("--inverse", flag=True),
        _JSON)),
    "selftest": (cmd_selftest, "census-vs-formula and identity checks", (_opt("--literal-paper", flag=True),)),
}


def build_parser():
    """A new argparse parser for COMMANDS; `main` uses it for what
    _exact_parse declines, and for the help and usage errors."""
    import argparse

    p = argparse.ArgumentParser(prog="sdgqc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (fn, summary, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.set_defaults(fn=fn)
        for o in options:
            if o.flag:
                sp.add_argument(o.name, dest=o.dest, action="store_true", **o.shown)
            else:
                sp.add_argument(o.name, dest=o.dest, type=o.type, choices=o.choices, required=o.required, **o.shown)
    return p


def _exact_parse(argv):
    """The namespace build_parser().parse_args(argv) builds, with equal vars,
    when argv is a known subcommand followed by full option names only, each
    valued option followed by a str that does not start with "-" and passes
    the option's type and choices, with every required option present; None
    for any other argv, which argparse then parses or refuses.  Every token of
    argv is a str.  Prints nothing."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    fn, _help, options = spec
    by_name = {o.name: o for o in options}
    values = {o.dest: False if o.flag else None for o in options}
    tokens = iter(argv[1:])
    for token in tokens:
        option = by_name.get(token)
        if option is None:
            return None
        if option.flag:
            values[option.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            values[option.dest] = value = value if option.type is None else option.type(value)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
    if any(values[o.dest] is None for o in options if o.required):
        return None
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    bad = [token for token in argv if not isinstance(token, str)]
    if bad:
        print(f"error: arguments must be strings, got {bad[0]!r}", file=sys.stderr)
        return 2
    args = _exact_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 2
    try:
        rc = args.fn(args)
        sys.stdout.flush()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: exit 128 + SIGPIPE, as a shell shows for
        # `yes | head -1`.  stdout's fd goes to devnull, so that the
        # interpreter's last flush of what is still buffered cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return rc


if __name__ == "__main__":
    sys.exit(main())
