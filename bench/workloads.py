"""Workload inputs and the output checks that decide which items failed.

Each workload is a list of CLI argument lists (one child process runs all of
them) plus a checker.  The checkers read only the text the CLI printed and
use plain arithmetic (gcd enumeration, the k-1 family value, pinch-chain
continuity); they call nothing in crosscap4, so a wrong engine cannot
certify its own output.

Item counting: a certificate row for `census` and `family`, a CLI
invocation for `engines`.
"""

import json
import math
import random
import re

# Each child does about 1.5 s of work on a 2-vCPU Intel Xeon virtual
# machine, so a run holds many children and their median is steady.
# scan --max 70: 1,424 certificates.
CENSUS_MAX = 70
# table --kmax 200: 199 certificates of T(2k, 2k-1).
FAMILY_KMAX = 200
# engines: the numpy lattice count and the O(p) pinch walk.  Work is ~pq per
# signature call and ~p/2 steps per pinch call; the narrow bands keep the
# total within about 1% between seeds.  Half of the pinch calls, in seeded
# order, take --gamma3, whose walk is shorter, so every seed has the same
# mix.  The signature calls run first, so the peak RSS is the largest
# lattice count on top of the same heap for every seed.
SIGNATURE_CALLS = 4
SIGNATURE_P = (2990, 3000)
SIGNATURE_Q_BELOW = 10
PINCH_CALLS = 2
PINCH_P = (120001, 122001)

CSV_HEADER = ("p,q,sigma_right,sigma_left,t0,d_minus1_right,d_minus1_left,"
              "gamma4_lower,gamma4_upper,exact,gamma3_upper")

NAMES = ("census", "family", "engines")


def argv_lists(workload, seed):
    """The CLI invocations of one workload run.  Only `engines` uses the
    seed; `census` and `family` fix their own inputs."""
    if workload == "census":
        return [["scan", "--max", str(CENSUS_MAX), "--csv"]]
    if workload == "family":
        return [["table", "--family", "2k", "--kmax", str(FAMILY_KMAX),
                 "--json"]]
    if workload == "engines":
        return _engines_argv(seed)
    raise ValueError("unknown workload %r" % (workload,))


def _engines_argv(seed):
    rng = random.Random(seed)
    calls = []
    for _ in range(SIGNATURE_CALLS):
        while True:
            p = rng.randint(*SIGNATURE_P)
            q = rng.randint(p - SIGNATURE_Q_BELOW, p - 1)
            if math.gcd(p, q) == 1:
                break
        calls.append(["signature", str(p), str(q)])
    gamma3 = [i < PINCH_CALLS // 2 for i in range(PINCH_CALLS)]
    rng.shuffle(gamma3)
    for flag in gamma3:
        p = rng.randint(*PINCH_P)
        argv = ["pinch", str(p), str(p - 1)]
        if flag:
            argv.append("--gamma3")
        calls.append(argv)
    return calls


def items_attempted(workload, argvs):
    if workload == "census":
        return len(_census_pairs(CENSUS_MAX))
    if workload == "family":
        return FAMILY_KMAX - 1
    return len(argvs)


def items_failed(workload, argvs, outputs):
    """Failed items of one child run.  `outputs` holds one
    (exit_code, stdout, stderr) per argv list."""
    if workload == "census":
        return _check_census(outputs[0])
    if workload == "family":
        return _check_family(outputs[0])
    return sum(not _check_engine_call(argv, out)
               for argv, out in zip(argvs, outputs))


def _census_pairs(m):
    return [(p, q) for p in range(3, m + 1) for q in range(2, p)
            if math.gcd(p, q) == 1]


def _check_census(output):
    code, out, err = output
    pairs = _census_pairs(CENSUS_MAX)
    lines = out.split("\n")
    # header, one line per row, the summary, and the empty tail
    if code != 0 or err or len(lines) != len(pairs) + 3 or \
            lines[0] != CSV_HEADER or lines[-1] != "":
        return len(pairs)
    failed = 0
    exact = 0
    for (p, q), line in zip(pairs, lines[1:-2]):
        f = line.split(",")
        ok = len(f) == 11 and (int(f[0]), int(f[1])) == (p, q)
        if ok:
            lower, upper, flag = int(f[7]), int(f[8]), f[9]
            ok = 1 <= lower <= upper and flag == \
                ("true" if lower == upper else "false")
            exact += flag == "true"
        failed += not ok
    if lines[-2] != "# exact %d of %d" % (exact, len(pairs)):
        return len(pairs)
    return failed


def _check_family(output):
    code, out, err = output
    n = FAMILY_KMAX - 1
    try:
        rows = json.loads(out)
    except ValueError:
        return n
    if code != 0 or err or not isinstance(rows, list) or len(rows) != n:
        return n
    failed = 0
    for k, r in enumerate(rows, start=2):
        failed += not (r.get("p") == 2 * k and r.get("q") == 2 * k - 1 and
                       r.get("gamma4_lower") == k - 1 and
                       r.get("gamma4_upper") == k - 1 and
                       r.get("exact") is True)
    return failed


_SIG = re.compile(r"recursion: (\d+)\nlattice:   (\d+)\n\Z")
_STEP = re.compile(r"\((\d+),(\d+)\) --t=\d+,h=\d+--> \((-?\d+),(-?\d+)\)")


def _check_engine_call(argv, output):
    code, out, err = output
    if code != 0 or err:
        return False
    if argv[0] == "signature":
        m = _SIG.match(out)
        return bool(m) and m.group(1) == m.group(2) and \
            int(m.group(1)) % 2 == 0
    # pinch p p-1: each step starts where the last one landed, p strictly
    # decreases, and the walk ends at an unknot (gamma4) or at a vanishing
    # coordinate (gamma3).
    lines = out.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        return False
    cur = (int(argv[1]), int(argv[2]))
    for line in lines[:-1]:
        m = _STEP.fullmatch(line)
        if not m or (int(m.group(1)), int(m.group(2))) != cur:
            return False
        r, s = abs(int(m.group(3))), abs(int(m.group(4)))
        nxt = (max(r, s), min(r, s))
        if nxt[0] >= cur[0]:
            return False
        cur = nxt
    return cur[1] == 0 if "--gamma3" in argv else cur[1] <= 1
