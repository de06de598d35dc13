"""Command-line surface: character expansions, parameter tables,
verification suites, and modular-transform certificates.

Subcommands
    expand     q-expansion of one character as canonical JSON or text
    table      (M, j, heart, k1, k2, c, h, s) rows as CSV or JSON
    verify     run a named identity suite (or all) and report cases
    transform  span-closure certificate for the S or T transform

Rationals are written "p/q" everywhere (flags and output).  Values
starting with a dash are passed as --flag=value, e.g. --j=-1/2.

Exit codes: 0 success, 1 failing case or residual above tolerance,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction

from mpmath import mp

from . import __version__
from .characters import (CharacterSpec, central_charge, character_series,
                         h_s_values, index_set, nice_k1_values,
                         nice_param_to_j)
from .modular import default_points, family_members, span_closure
from .qseries import dumps_canonical, to_json_dict
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .theta import DEFAULT_DPS


class UsageError(Exception):
    """Bad flag values or inadmissible parameters; exits with code 2."""


# ---------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------

def parse_fraction(text, what):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s must be a rational like 3, 1/2 or -5/8; "
                         "got %r" % (what, text))


# each numeric flag that also takes the literal "default": (parse, what
# its text must be, default (SuiteConfig's), check, what the check
# demands).  A q-order must be positive: below q^0 there is no term, and
# a check there passes whatever the code computes.
FLAGS = {
    "--q-order": (Fraction, "a positive rational like 3, 1/2 or 5/8",
                  SuiteConfig.q_order, lambda v: v > 0, "must be positive"),
    "--tol": (float, "a float or 'default'", SuiteConfig.tol,
              lambda v: v > 0, "must be positive"),
    "--precision": (int, "decimal digits or 'default'", SuiteConfig.dps,
                    lambda v: v >= 15,
                    "below 15 digits cannot meet the default tolerances"),
}


def parse_flag(flag, text):
    """The value of a numeric flag (FLAGS): its default for "default",
    else its text parsed and checked; UsageError when either fails."""
    parse, kind, default, check, demand = FLAGS[flag]
    if text == "default":
        return default
    try:
        v = parse(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s must be %s; got %r" % (flag, kind, text))
    if not check(v):
        raise UsageError("%s %s" % (flag, demand))
    return v


def parse_sign(text):
    t = str(text).strip().lower()
    if t in ("+", "plus"):
        return "+"
    if t in ("-", "minus"):
        return "-"
    raise UsageError("--sign must be one of +, -, plus, minus; got %r"
                     % (text,))


def parse_sector(text):
    t = str(text).strip().upper()
    if t in ("NS", "R"):
        return t
    raise UsageError("--sector must be NS or R; got %r" % (text,))


def parse_m_range(text):
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError("--M-range must be M or LO:HI; got %r" % (text,))
    if lo < 1 or hi < lo:
        raise UsageError("--M-range needs 1 <= LO <= HI; got %r" % (text,))
    return lo, hi


# ---------------------------------------------------------------------
# series text rendering
# ---------------------------------------------------------------------

def _scalar_str(c):
    """ASCII form of a Gaussian rational: 1, -3/2, i, -i, 5/2*i, (1+2*i)."""
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return "%s*i" % (c.im,)
    im = "+%s*i" % (c.im,) if c.im > 0 else "%s*i" % (c.im,)
    if c.im == 1:
        im = "+i"
    elif c.im == -1:
        im = "-i"
    return "(%s%s)" % (c.re, im)


def _term_str(xe, c):
    if xe == 0:
        return _scalar_str(c)
    xpart = "x^%s" % (xe,)
    if c.im == 0 and c.re == 1:
        return xpart
    if c.im == 0 and c.re == -1:
        return "-" + xpart
    return "%s*%s" % (_scalar_str(c), xpart)


def render_series_text(ser, header_lines):
    rows = {}
    for qe, xe, c in ser.terms():
        if c.is_zero():
            continue
        rows.setdefault(qe, []).append((xe, c))
    lines = list(header_lines)
    if not rows:
        lines.append("(no nonzero terms below the trusted order)")
        return "\n".join(lines) + "\n"
    labels = {qe: "q^%s" % (qe,) for qe in rows}
    width = max(len(v) for v in labels.values())
    for qe in sorted(rows):
        terms = sorted(rows[qe], key=lambda t: t[0], reverse=True)
        parts = []
        for k, (xe, c) in enumerate(terms):
            t = _term_str(xe, c)
            if k == 0:
                parts.append(t)
            elif t.startswith("-") and not t.startswith("-("):
                parts.append("- " + t[1:])
            else:
                parts.append("+ " + t)
        lines.append("%-*s  %s" % (width, labels[qe], " ".join(parts)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_expand(args):
    j = parse_fraction(args.j, "--j")
    sector = parse_sector(args.sector)
    sign = parse_sign(args.sign)
    q_order = parse_flag("--q-order", args.q_order)
    window = None
    if args.x_window is not None:
        parts = str(args.x_window).split(":")
        if len(parts) != 2:
            raise UsageError("--x-window must be LO:HI, two rationals "
                             "separated by a colon")
        lo = parse_fraction(parts[0], "--x-window")
        hi = parse_fraction(parts[1], "--x-window")
        if lo > hi:
            raise UsageError("--x-window needs LO <= HI; got %s > %s"
                             % (lo, hi))
        window = (lo, hi)
    try:
        spec = CharacterSpec(args.M, j, sector, sign)
    except ValueError as exc:
        try:
            adm = ", ".join(map(str, index_set(args.M, sector)))
        except ValueError:
            raise UsageError(str(exc))
        raise UsageError("%s; admissible j for M=%d sector %s: %s"
                         % (exc, args.M, sector, adm))

    ser = character_series(spec, q_order, window)
    if args.format == "json":
        print(dumps_canonical(to_json_dict(ser)))
    else:
        header = [
            "# expand M=%d j=%s sector=%s sign=%s" % (
                spec.M, spec.j, spec.sector, spec.sign),
            "# trusted below q^%s" % (ser.q_order,),
        ]
        if ser.x_window is not None:
            header.append("# x window [%s, %s]" % ser.x_window)
        sys.stdout.write(render_series_text(ser, header))
    return 0


def cmd_table(args):
    lo, hi = parse_m_range(args.m_range)
    twisted = bool(args.twisted)
    sector = "R" if twisted else "NS"
    rows = []
    for M in range(lo, hi + 1):
        c = central_charge(M)
        for k1 in nice_k1_values(M, "I"):
            k2 = M - 1 - 2 * k1
            for heart in ("I", "III"):
                if k1 not in nice_k1_values(M, heart):
                    continue
                j = nice_param_to_j(M, k1, heart, twisted)
                h, s = h_s_values(CharacterSpec(M, j, sector, "+"))
                rows.append((M, str(j), heart, k1, k2,
                             str(c), str(h), str(s)))
    if args.format == "json":
        payload = {"rows": [
            {"M": r[0], "j": r[1], "heart": r[2], "k1": r[3], "k2": r[4],
             "c": r[5], "h": r[6], "s": r[7]} for r in rows]}
        print(dumps_canonical(payload))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("M", "j", "heart", "k1", "k2", "c", "h", "s"))
        writer.writerows(rows)
    return 0


def cmd_verify(args):
    if args.suite == "all":
        names = SUITE_NAMES
    elif args.suite in SUITE_NAMES:
        names = (args.suite,)
    else:
        raise UsageError("--suite must be one of %s or all"
                         % (", ".join(SUITE_NAMES),))
    cfg = SuiteConfig(q_order=parse_flag("--q-order", args.q_order),
                      tol=parse_flag("--tol", args.tol),
                      dps=parse_flag("--precision", args.precision))
    reports = [run_suite(name, cfg) for name in names]
    if args.format == "json":
        print(dumps_canonical(
            {"reports": [r.to_json_dict() for r in reports]}))
    else:
        sys.stdout.write("\n\n".join(r.render_text() for r in reports)
                         + "\n")
    return 0 if all(r.ok for r in reports) else 1


def cmd_transform(args):
    if args.M < 1:
        raise UsageError("--M must be a positive integer")
    if args.statement not in (1, 2):
        raise UsageError("--statement must be 1 or 2")
    which = str(args.which).strip().upper()
    if which not in ("S", "T"):
        raise UsageError("--which must be S or T")
    tol = parse_flag("--tol", args.tol)
    dps = parse_flag("--precision", args.precision)
    members = family_members(args.M, args.statement)
    count = args.points if args.points else 3 * len(members)
    if count < 2 * len(members):
        raise UsageError("--points %d is below the minimum 2*%d for a "
                         "family of %d" % (count, len(members),
                                           len(members)))
    pts = default_points(count, diagonal=True, seed=args.seed)
    with mp.workdps(dps):
        cert = span_closure(args.M, args.statement, which, pts)
    text = dumps_canonical(cert.to_json_dict())
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if cert.residual > tol:
        print("error: residual %.3e exceeds tolerance %.3e"
              % (cert.residual, tol), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetachar",
        description="Exact q-series for superconformal characters: "
                    "expansions, parameter tables, identity suites, and "
                    "modular certificates.")
    parser.add_argument("--version", action="version",
                        version="thetachar %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand",
                       help="q-expansion of one character")
    p.add_argument("--M", type=int, required=True, help="level, M >= 1")
    p.add_argument("--j", required=True,
                   help="weight label, a rational like 1/2 (use --j=-1/2 "
                        "for negatives)")
    p.add_argument("--sector", required=True, help="NS or R")
    p.add_argument("--sign", required=True, help="+, -, plus or minus")
    p.add_argument("--q-order", default="default",
                   help="trusted order, rational (default 8)")
    p.add_argument("--x-window", metavar="LO:HI",
                   help="x-exponent window as one LO:HI pair of rationals, "
                        "e.g. --x-window=-5/2:-1/2 (default: 6 lattice "
                        "units around the leading exponent)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("table",
                       help="parameter table (M, j, heart, k1, k2, c, h, s)")
    p.add_argument("--M-range", dest="m_range", default="1:4",
                   help="single level M or inclusive range LO:HI "
                        "(default 1:4)")
    p.add_argument("--twisted", action="store_true",
                   help="Ramond-sector (twisted) rows instead of NS")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", default="all",
                   help="one of %s, or all (default)"
                        % (", ".join(SUITE_NAMES),))
    p.add_argument("--q-order", default="default",
                   help="trusted order for exact cases (default 8)")
    p.add_argument("--tol", default="default",
                   help="numeric tolerance (default 1e-9)")
    p.add_argument("--precision", default="default",
                   help="working precision in decimal digits (default %d)"
                        % DEFAULT_DPS)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("transform",
                       help="span-closure certificate for S or T")
    p.add_argument("--M", type=int, required=True, help="level, M >= 1")
    p.add_argument("--which", required=True, help="S or T")
    p.add_argument("--statement", type=int, default=1,
                   help="1: mixed-index family; 2: integer-index family "
                        "(default 1)")
    p.add_argument("--points", type=int, default=0,
                   help="sample points (default 3x family size; minimum "
                        "2x)")
    p.add_argument("--seed", type=int, default=0,
                   help="sample-point stream selector (default 0)")
    p.add_argument("--tol", default="default",
                   help="residual tolerance (default 1e-9)")
    p.add_argument("--precision", default="default",
                   help="working precision in decimal digits (default %d)"
                        % DEFAULT_DPS)
    p.add_argument("--output", default=None,
                   help="write the certificate JSON to this file instead "
                        "of stdout")
    return parser


# built once per process; a parse keeps no state in it
PARSER = build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    # looked up per request, so a wrapped cmd_* is the one that runs
    commands = {"expand": cmd_expand, "table": cmd_table,
                "verify": cmd_verify, "transform": cmd_transform}
    try:
        return commands[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
