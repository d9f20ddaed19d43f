"""Command-line front end.

Exit codes: 0 success, 2 invalid input, 3 internal consistency failure.
All success output goes to stdout; diagnostics go to stderr.  Input is
checked before anything is printed, so exit 2 leaves stdout empty.  `scan`,
`table` and `profile` write each row as it is made, so a failed check
(exit 3) may leave the rows made before it on stdout.  `report` and `pinch`
write in batches, but only after every check of the certificate or walk
has passed, so their exits 2 and 3 leave stdout empty.  A reader that
closes stdout early (`| head -1`) ends the command quietly with exit 0.
Every command takes integer arguments of at most MAX_DIGITS digits.  Each
command's other limits live here too and bound only what it prints, so the
library takes inputs of any size; only torus.alexander bounds its own work.
COMMANDS maps each command to its help line, handler and arguments.  main
parses a plain command line (see _plain) from COMMANDS alone, and imports
argparse only for the rest: help, usage and errors, and the forms it also
accepts (abbreviations, `--opt=value`, negative values, `--`).
"""

import math
import sys
import types

from . import bounds, heegaard, oracle, pinch, reports, torus
from .errors import ConsistencyError, InputError
from .torus import canonicalize

# scan makes about 0.3 * max^2 reports, each walking a few pinch runs and
# printing no trace: `scan --max 300 --csv` (27,000 rows, streamed) takes
# about 0.7-0.9 s and 15 MB on a 2-vCPU Xeon VM.
SCAN_MAX = 300

# Integer arguments of up to this many digits keep every printed value (t0
# grows as p*q, audit's c1^2 as a ratio of squares) at most 2,001 digits
# long, below Python's 4,300-digit limit on int-to-str conversion.
MAX_DIGITS = 1000

# A walk from T(p, q) takes fewer than p steps, in few runs, and `pinch`
# prints every step and `report` every trace pair, both through
# pinch.batches, which copies each part out of a block's periodic pattern:
# at p = 10^6 (500,000 steps in one run, streamed) each takes 0.06-0.07 s
# and 15 MB as a subprocess on a 2-vCPU Intel Xeon VM, all but 7-12 ms of
# it interpreter start-up.
PINCH_MAX_P = 10 ** 6

# Row k walks its k - 1 pinch steps in one run, and its JSON trace prints k
# pairs, so `table --json` prints O(k_max^2) pairs, but formats only one
# new pair per row (reports.write_rows); CSV and TSV rows print no trace.
# Streamed, `table --family 2k --kmax 1000` takes about 0.1 s with --json
# and with --csv, in 15 MB, on a 2-vCPU Xeon VM.
FAMILY_MAX_K = 1000

# One row per framing, streamed: four integers about as long as p*q + |n|,
# so profile takes at most PROFILE_MAX_DIGITS // (digits of p*q + |n|)
# framings, and never over PROFILE_MAX_ROWS.  10^6 rows of a small knot
# take 1.8-2.4 s and print 26-61 MB; 5,000 rows at 1,000-digit p and q, or
# 10,000 at a 1,000-digit n, 0.7-0.9 s and 19-39 MB; each 15 MB (2-vCPU VM).
PROFILE_MAX_ROWS = 10 ** 6
PROFILE_MAX_DIGITS = 10 ** 7


def _check_nonzero(p, q):
    if p == 0 or q == 0:
        raise InputError("need nonzero p, q, got (%d, %d)" % (p, q))


def _check_walk(K):
    if K.p > PINCH_MAX_P:
        raise InputError("pinch accepts p <= %d, got %d" % (PINCH_MAX_P, K.p))


def _cmd_report(args, out):
    _check_nonzero(args.p, args.q)
    _check_walk(canonicalize(args.p, args.q))
    r = reports.report(args.p, args.q)
    if args.json:
        out.writelines(reports.json_parts(r))
        out.write("\n")
        return 0
    print("knot: T(%d,%d)" % (r.p, r.q), file=out)
    print("signature: right %d, left %d" % (r.sigma_right, r.sigma_left),
          file=out)
    print("t0: %d" % r.t0, file=out)
    print("d(-1-surgery): right %d, left %d"
          % (r.d_minus1_right, r.d_minus1_left), file=out)
    print("gamma4 lower bound: %d" % r.gamma4_lower, file=out)
    print("gamma4 upper bound: %d" % r.gamma4_upper, file=out)
    print("exact: %s" % ("true" if r.exact else "false"), file=out)
    if r.gamma3_upper is not None:
        print("gamma3 upper bound: %d" % r.gamma3_upper, file=out)
    out.write("pinch trace: ")
    out.writelines(reports.trace_parts(r, " -> ", "(%d,%d)"))
    out.write("\n")
    return 0


def _cmd_table(args, out):
    if not 2 <= args.kmax <= FAMILY_MAX_K:
        raise InputError("need 2 <= k_max <= %d, got %d"
                         % (FAMILY_MAX_K, args.kmax))
    fmt = (reports.CSV if args.csv else
           reports.JSON if args.json else reports.TSV)
    reports.write_rows(reports.family_table(args.kmax), out, fmt)
    return 0


def _cmd_scan(args, out):
    if args.max > SCAN_MAX:
        raise InputError("scan accepts --max <= %d, got %d"
                         % (SCAN_MAX, args.max))
    tally = [0, 0]  # inexact and exact rows made so far

    def rows():
        for p in range(3, args.max + 1):
            for q in range(2, p):
                if math.gcd(p, q) == 1:
                    r = reports.report(p, q)
                    tally[r.exact] += 1
                    yield r
    if args.csv:
        reports.write_rows(rows(), out, reports.CSV)
        print("# exact %d of %d" % (tally[1], sum(tally)), file=out)
        return 0
    for r in rows():
        print("T(%d,%d): lower %d upper %d%s"
              % (r.p, r.q, r.gamma4_lower, r.gamma4_upper,
                 " exact" if r.exact else ""), file=out)
    print("exact rows: %d of %d" % (tally[1], sum(tally)), file=out)
    return 0


def _cmd_pinch(args, out):
    K = canonicalize(args.p, args.q)
    if args.gamma3 and (K.p * K.q) % 2:
        raise InputError("in-S^3 continuation needs p*q even, got %s" % (K,))
    _check_walk(K)
    runs = pinch.pinch_runs(K)
    for run in runs:
        ps, qs, ts, hs, rs, ss = pinch.run_columns(run)
        _, _, a, b, kind, _ = run
        # A POSITIVE run has (t, h) = (a, b) on every step: the format
        # carries them and only the pairs are columns.
        out.writelines(
            pinch.batches("(%%d,%%d) --t=%d,h=%d--> (%%d,%%d)\n" % (a, b),
                          ps, qs, rs, ss)
            if kind == pinch.POSITIVE else pinch.batches(
                "(%d,%d) --t=%d,h=%d--> (%d,%d)\n", ps, qs, ts, hs, rs, ss))
    if args.gamma3:
        ms = pinch.tail(*pinch.walk_end(K, runs))  # (m, 1) -> (2 - m, 1)
        out.writelines(pinch.batches(
            "(%d,1) --t=%d,h=0--> (%d,1)\n", ms,
            range(ms.start - 1, ms.stop - 1, -2), range(2 - ms.start, 2, 2)))
    return 0


def _cmd_signature(args, out):
    _check_nonzero(args.p, args.q)
    rec = torus.sigma_rec(args.p, args.q)
    lat = oracle.sigma_lattice(args.p, args.q)
    print("recursion: %d" % rec, file=out)
    print("lattice:   %d" % lat, file=out)
    if rec != lat:
        raise ConsistencyError("signature engines disagree: %d vs %d"
                               % (rec, lat))
    return 0


def _cmd_alexander(args, out):
    delta = torus.alexander(args.p, args.q)
    t, coeffs = heegaard.t0(args.p, args.q), oracle.alexander_t0(delta)
    if t != coeffs:
        raise ConsistencyError("t0 engines disagree: floor-sum %d vs "
                               "Alexander coefficients %d" % (t, coeffs))
    print(torus.alexander_text(delta), file=out)
    print("t0 = %d" % t, file=out)
    return 0


def _cmd_dinv(args, out):
    K = canonicalize(args.p, args.q)
    _, _, _, right, left, _ = bounds.invariants(K.p, K.q)
    # d(+1) of a knot is -d(-1) of its mirror
    print("right-handed: d(-1) = %d, d(+1) = %d" % (right, -left), file=out)
    print("left-handed:  d(-1) = %d, d(+1) = %d" % (left, -right), file=out)
    return 0


def _cmd_profile(args, out):
    K = canonicalize(args.p, args.q)
    if args.n_from > args.n_to:
        raise InputError("empty framing window [%d, %d]"
                         % (args.n_from, args.n_to))
    digits = len(str(K.p * K.q + max(abs(args.n_from), abs(args.n_to))))
    most = min(PROFILE_MAX_ROWS, PROFILE_MAX_DIGITS // digits)
    if args.n_to - args.n_from >= most:
        raise InputError("profile accepts at most %d framings, got %d"
                         % (most, args.n_to - args.n_from + 1))
    rows = bounds.framed_profile(K, args.n_from, args.n_to)
    if args.csv:
        out.write("n,sig_bound,d_bound,combined\n")
        line = "%d,%d,%d,%d\n"
    else:
        out.write("framed lower bounds for %s\n" % (K,))
        line = "n=%d: signature %d, d-invariant %d, combined %d\n"
    for row in rows:
        out.write(line % row)
    return 0


def _cmd_audit(args, out):
    rec = bounds.obstruction_audit(args.g, args.m, args.d)
    print("g=%d m=%d n=%d" % (rec.g, rec.m, rec.n), file=out)
    print("sign=%+d a=%d" % (rec.sign, rec.a), file=out)
    print("c1^2 = %s (direct) = %s (reduced)"
          % (rec.c1sq_direct, rec.c1sq_reduced), file=out)
    print("pairing <c1,[S]> = %d = n - 2g" % rec.pairing, file=out)
    print("e/2 <= 2d + b1: %s <= %s -> %s"
          % (rec.eq2_lhs, rec.eq2_rhs,
             "consistent" if rec.consistent else "violated"), file=out)
    return 0


_PQ = [("p", dict(type=int)), ("q", dict(type=int))]
_FLAG = dict(action="store_true")

# Each command's help line, handler and arguments, in the order `-h` lists
# them.  An argument is (flag, kwargs) for add_argument; a list of them is a
# mutually exclusive group.
COMMANDS = {
    "report": ("bound certificate for T(p,q)", _cmd_report,
               [*_PQ, ("--json", _FLAG)]),
    "table": ("family table", _cmd_table,
              [("--family", dict(required=True, choices=["2k"])),
               ("--kmax", dict(type=int, required=True)),
               [("--csv", _FLAG), ("--json", _FLAG)]]),
    "scan": ("reports for all coprime q < p <= M", _cmd_scan,
             [("--max", dict(type=int, required=True)),
              ("--csv", _FLAG)]),
    "pinch": ("pinch-move trace", _cmd_pinch,
              [*_PQ, ("--gamma3", _FLAG)]),
    "signature": ("both signature engines", _cmd_signature, _PQ),
    "alexander": ("Alexander polynomial and t0", _cmd_alexander, _PQ),
    "dinv": ("d-invariants of +-1-surgery", _cmd_dinv, _PQ),
    "profile": ("per-framing lower bounds", _cmd_profile,
                [*_PQ,
                 ("--from", dict(dest="n_from", type=int, required=True)),
                 ("--to", dict(dest="n_to", type=int, required=True)),
                 ("--csv", _FLAG)]),
    "audit": ("exact replay of the cobordism inequality chain", _cmd_audit,
              [(flag, dict(type=int, required=True))
               for flag in ("--g", "--m", "--d")]),
}


def _plain(argv):
    """The namespace argparse makes of `argv` when argv is a command and its
    arguments in plain form, else None.  Plain form: exact option names, each
    given at most once; values that do not start with "-", that convert with
    the argument's type and pass its choices; the right number of
    positionals; every required option, and at most one option of each
    mutually exclusive group.  Reads only COMMANDS."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    args = {"command": argv[0], "func": func}
    options, positionals, groups = {}, [], []
    for arg in arguments:
        for flag, kwargs in arg if isinstance(arg, list) else [arg]:
            if not flag.startswith("-"):
                positionals.append((flag, kwargs))
                continue
            dest = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
            args[dest] = (False if kwargs.get("action") == "store_true"
                          else None)
            options[flag] = dest, kwargs
        if isinstance(arg, list):
            groups.append({options[flag][0] for flag, _ in arg})
    given, words, tokens = set(), [], iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                words.append(token)
                continue
            dest, kwargs = options.get(token, (None, None))
            if dest is None or dest in given:
                return None
            given.add(dest)
            if kwargs.get("action") == "store_true":
                args[dest] = True
            else:  # a missing value reads as "-", which is no plain value
                args[dest] = _value(next(tokens, "-"), kwargs)
        if len(words) != len(positionals):
            return None
        for word, (dest, kwargs) in zip(words, positionals):
            args[dest] = _value(word, kwargs)
    except ValueError:
        return None
    if any(kwargs.get("required") and dest not in given
           for dest, kwargs in options.values()):
        return None
    if any(len(group & given) > 1 for group in groups):
        return None
    return types.SimpleNamespace(**args)


def _value(word, kwargs):
    """`word` converted as argparse converts an argument's value; raises
    ValueError where argparse would not take it as a plain value."""
    if word.startswith("-"):
        raise ValueError(word)
    value = kwargs.get("type", str)(word)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(word)
    return value


def build_parser():
    """The argparse tree of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="crosscap4",
        description="Certified bounds for the nonorientable four-ball genus "
                    "of torus knots.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for arg in arguments:
            grouped = isinstance(arg, list)
            into = sub.add_mutually_exclusive_group() if grouped else sub
            for flag, kwargs in arg if grouped else [arg]:
                into.add_argument(flag, **kwargs)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # A plain command line needs no parser; argparse words the rest.
    args = _plain(argv) or build_parser().parse_args(argv)
    try:
        for name, v in vars(args).items():
            if isinstance(v, list):  # argparse reads a second `--` as []
                raise InputError("argument %s: invalid int value: '--'"
                                 % name)
            if isinstance(v, int) and abs(v) >= 10 ** MAX_DIGITS:
                raise InputError("integer arguments accept at most %d "
                                 "digits" % MAX_DIGITS)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader is gone; the flush at exit goes to devnull instead.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
