"""Command-line front end.

Subcommands:
  upoly u|v N                      print one polynomial of the family
  verify <target> [options]        run named checks, text or JSON report
  field root-of-v R [K]            print a root of v_R as a zeta-polynomial
  rep preset|delta|word ...        inspect a diagram representation
  group order|element-order|relation ...   closure-engine queries

Exit status: 0 when everything passed, 1 when any check failed, 2 on a
usage error (argparse's convention) or bad input: an unknown or misspelt
preset, a generator letter outside s1..s_rank, an argument out of range.
"""

import argparse
import json
import re
import sys
import time

from .cyclo import root_of_v, root_identity_suite
from .engine import closure, element_order, check_relation
from .identities import check_all_identities
from .report import timed
from .reflrep import _FAMILIES, preset, preset_names
from .suites import (PROFILES, SUITE_ORDER, run_all, run_suite,
                     classification_cases)
from .sympoly import run_symbolic_suites
from .upoly import u_poly, v_poly, format_poly


def _parse_range(text):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m is None:
        raise argparse.ArgumentTypeError(
            "range must look like -30..30, got %r" % text)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return lo, hi


def _int_at_least(lo):
    def parse(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (lo, n))
        return n
    return parse


def _parse_word(tokens):
    """['s1', 's2', 's3'] or one string 's1 s2 s3' -> [1, 2, 3]."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    out = []
    for tok in tokens:
        m = re.fullmatch(r"s(\d+)", tok)
        if m is None:
            raise ValueError("bad generator token %r (expected s1, s2, ...)"
                             % tok)
        out.append(int(m.group(1)))
    return out


def _parse_side(text):
    """One side of a relation: 's1 s2' or '(s1 s2 s3)^2'."""
    text = text.strip()
    m = re.fullmatch(r"\(([^)]*)\)\s*\^\s*(\d+)", text)
    if m is not None:
        return _parse_word(m.group(1)), int(m.group(2))
    if "^" in text:
        raise ValueError("%r: exponent must be a nonnegative integer" % text)
    return _parse_word(text), 1


def _parse_eq(text):
    sides = text.split("=")
    if len(sides) == 1:
        lhs = _parse_side(sides[0])
        return lhs, None
    if len(sides) != 2:
        raise ValueError("expected at most one '=' in %r" % text)
    return _parse_side(sides[0]), _parse_side(sides[1])


def _print_report(res):
    mark = "ok  " if res.passed else "FAIL"
    print("%s %-20s %5d cases, %d failed, %d skipped  (%.2fs)"
          % (mark, res.name, res.cases, len(res.failures),
             len(res.skipped), res.elapsed))
    for cid in res.failures:
        print("     failed: %s" % cid)
    for rec in res.records:
        if rec[1] == "skipped":
            print("     skipped: %s (%s)" % (rec[0], rec[2]))


def _bad_input(command, exc):
    print("%s: %s" % (command, exc), file=sys.stderr)
    return 2


def cmd_upoly(args):
    try:
        poly = u_poly(args.n) if args.family == "u" else v_poly(args.n)
    except ValueError as exc:
        return _bad_input("upoly", exc)
    print(format_poly(poly))
    return 0


def cmd_verify(args):
    reports = []
    if args.all:
        reports = run_all(args.profile)
    elif args.target is None:
        print("verify: need a target or --all", file=sys.stderr)
        return 2
    elif args.target == "identities":
        try:
            reports = [timed(check_all_identities, *args.range,
                             "%d..%d" % args.range)]
        except ValueError as exc:
            return _bad_input("verify", exc)
    elif args.target == "roots":
        reports = [timed(root_identity_suite, args.max_r)]
    elif args.target == "classification":
        reports = [timed(classification_cases, "classification", args.bound)]
    elif args.target == "section2":
        reports = [timed(run_symbolic_suites, args.kmax)]
    elif args.target in SUITE_ORDER:
        reports = [run_suite(args.target, args.profile)]
    else:
        print("verify: unknown target %r (suites: %s)"
              % (args.target, ", ".join(SUITE_ORDER)), file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for r in reports:
            _print_report(r)
    return 0 if all(r.passed for r in reports) else 1


def cmd_field(args):
    try:
        print(root_of_v(args.r, args.k))
    except ValueError as exc:
        return _bad_input("field", exc)
    return 0


def _load_rep(name, command):
    """preset(name), or None after reporting why not under command's name;
    the known presets are listed only when the name or family is unknown."""
    try:
        return preset(name)
    except KeyError as exc:
        _bad_input(command, exc.args[0])
        spellings = [spelling for _, _, spelling in _FAMILIES.values()]
        print("known presets: %s" % ", ".join(preset_names() + spellings),
              file=sys.stderr)
    except ValueError as exc:
        _bad_input(command, exc)
    return None


def cmd_rep(args):
    rep = _load_rep(args.name, "rep")
    if rep is None:
        return 2
    if args.op == "preset":
        print("%s: rank %d over Q(zeta_%d)"
              % (rep.name, rep.rank, rep.ctx.N))
        if args.print_gens:
            for i, g in enumerate(rep.gens):
                print("s%d:" % (i + 1))
                for row in g.rows:
                    print("  [" + ", ".join(str(x) for x in row) + "]")
        return 0
    if args.op == "delta":
        try:
            print(rep.delta())
        except ValueError as exc:
            return _bad_input("rep", exc)
        return 0
    if args.op == "word":
        try:
            mat = rep.word(_parse_word(args.word))
        except ValueError as exc:
            return _bad_input("rep", exc)
        if args.charpoly:
            print(format_poly(mat.char_poly()))
        else:
            for row in mat.rows:
                print("[" + ", ".join(str(x) for x in row) + "]")
        return 0
    return 2


def cmd_group(args):
    rep = _load_rep(args.preset, "group")
    if rep is None:
        return 2
    if args.op == "order":
        start = time.perf_counter()
        result = closure(rep.gens, cap=args.cap, store_elements=False)
        elapsed_ms = int(1000 * (time.perf_counter() - start))
        if args.json:
            payload = {"preset": args.preset, "elapsed_ms": elapsed_ms}
            if result.cap_exceeded:
                payload["cap_exceeded"] = True
            else:
                payload["order"] = result.order
            payload["closure"] = result.stats
            payload["points"] = result.points
            print(json.dumps(payload))
        elif result.cap_exceeded:
            print("cap exceeded (> %d elements)" % args.cap)
        else:
            print(result.order)
        return 0
    if args.op == "element-order":
        try:
            mat = rep.word(_parse_word(args.word))
        except ValueError as exc:
            return _bad_input("group", exc)
        order = element_order(mat)
        print(order if order is not None else "no order found (cap hit)")
        return 0
    if args.op == "relation":
        try:
            (lw, le), rhs = _parse_eq(args.eq)
            ok = check_relation(rep.gens, lw, le, *(rhs or (None, 1)))
        except ValueError as exc:
            return _bad_input("group", exc)
        print("holds" if ok else "fails")
        return 0 if ok else 1
    return 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reflektor",
        description="exact checks for a Chebyshev-like polynomial family "
                    "and its reflection representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("upoly", help="print u_n or its primitive factor v_n")
    p.add_argument("family", choices=["u", "v"])
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_upoly)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("target", nargs="?",
                   help="suite id, or one of: identities, roots, "
                        "classification, section2")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--profile", choices=sorted(PROFILES), default="full")
    p.add_argument("--range", type=_parse_range, default=(-30, 30),
                   metavar="LO..HI", help="index range for 'identities'")
    p.add_argument("--max-r", type=_int_at_least(3), default=30,
                   help="largest index for 'roots' (at least 3)")
    p.add_argument("--bound", type=_int_at_least(3), default=12,
                   help="search bound for 'classification' (at least 3)")
    p.add_argument("--kmax", type=_int_at_least(0), default=6,
                   help="'section2' checks exponents |n| <= 2 kmax + 1")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("field", help="cyclotomic field values")
    p.add_argument("op", choices=["root-of-v"])
    p.add_argument("r", type=int)
    p.add_argument("k", type=int, nargs="?", default=1)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("rep", help="diagram representations")
    rsub = p.add_subparsers(dest="op", required=True)
    q = rsub.add_parser("preset")
    q.add_argument("name")
    q.add_argument("--print", dest="print_gens", action="store_true")
    q = rsub.add_parser("delta")
    q.add_argument("name")
    q = rsub.add_parser("word")
    q.add_argument("name")
    q.add_argument("word", nargs="+", metavar="sI")
    q.add_argument("--charpoly", action="store_true")
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("group", help="closure-engine queries")
    gsub = p.add_subparsers(dest="op", required=True)
    q = gsub.add_parser("order")
    q.add_argument("--preset", required=True)
    q.add_argument("--cap", type=_int_at_least(1), default=1_000_000)
    q.add_argument("--json", action="store_true")
    q = gsub.add_parser("element-order")
    q.add_argument("--preset", required=True)
    q.add_argument("--word", required=True)
    q = gsub.add_parser("relation")
    q.add_argument("--preset", required=True)
    q.add_argument("--eq", required=True)
    p.set_defaults(fn=cmd_group)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # glue range values onto their flag so argparse does not mistake a
    # leading-minus range like -30..30 for an option
    glued = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            glued.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            glued.append(argv[i])
            i += 1
    parser = build_parser()
    args = parser.parse_args(glued)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
