"""Assembled per-knot certificates and their JSON/CSV/TSV serialization."""

from collections import namedtuple

from .bounds import invariants
from .errors import ConsistencyError
from .pinch import batches, pinch_runs, run_columns, tail, walk_end
from .torus import canonicalize

# Row formats of write_rows; CSV and TSV are their cell separators.
CSV, TSV, JSON = ",", "\t", "json"


# Every field is an int but exact, a bool; gamma3_upper, None when absent;
# and pinch_runs, the tuple of the walk's runs (p, q, a, b, kind, n).
BoundReport = namedtuple("BoundReport", [
    "p", "q", "sigma_right", "sigma_left", "t0", "d_minus1_right",
    "d_minus1_left", "gamma4_lower", "gamma4_upper", "exact", "gamma3_upper",
    "pinch_runs"])


# CSV columns are the report fields less the runs: the nine int fields,
# then exact and gamma3_upper, which is empty when absent.
CSV_HEADER = ",".join(BoundReport._fields[:-1])
_CSV_ROW = "%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s\n"

# JSON text of a report, laid out as json.dumps(indent=2) lays out the
# scalar fields followed by "pinch_trace", a list of [p, q] pairs: the
# scalar fields in one template, filled from _cells with null for an
# absent gamma3_upper, then the trace pairs, printed by pinch.batches
# (trace_parts) so that no string holds a long trace.
_JSON_HEAD = "{\n%s,\n  \"pinch_trace\": [" % ",\n".join(
    '  "%s": %%s' % name for name in BoundReport._fields[:-1])
_JSON_PAIR = "\n    [\n      %d,\n      %d\n    ]"

# The head, pair and closing templates of a report at the top level, as
# json_parts writes it, and nested one level in a list, as write_rows
# writes it: no value holds a newline, so indenting every newline of the
# templates indents the whole text.
_JSON_TEMPLATES = {
    indent: tuple(t.replace("\n", "\n" + indent) for t in (
        _JSON_HEAD, _JSON_PAIR, "\n  ]\n}"))
    for indent in ("", "  ")}


def report(p, q):
    """Certificate for T(p,q): signature, t0, d-invariants, lower and upper
    genus bounds, exactness flag, and the runs of the pinch walk behind the
    upper bound (trace_parts prints them as the pinch trace).  The input
    pair is canonicalized first.  Both chiralities and the lower bound come
    from one call of bounds.invariants, both upper bounds and the runs from
    one pinch walk and its tail.  Signs are canonicalized away, so
    report(-3, 2) == report(3, 2), and report(0, 1) == report(1, 1) is the
    unknot's.  A non-coprime pair, (0, 5) among them, raises InputError in
    canonicalize."""
    K = canonicalize(p, q)
    inv = invariants(K.p, K.q)
    lower = inv[5]

    # One walk serves both upper bounds and the runs, gamma3 with its tail.
    runs = pinch_runs(K)
    steps = sum(run[5] for run in runs)
    upper = max(1, steps)
    if lower > upper:
        raise ConsistencyError("lower bound %d exceeds upper %d for %s"
                               % (lower, upper, K))
    gamma3 = (max(1, steps + len(tail(*walk_end(K, runs))))
              if (K.p * K.q) % 2 == 0 else None)

    return BoundReport(K.p, K.q, *inv, upper, lower == upper, gamma3, runs)


def family_table(k_max):
    """Reports for the family T(2k, 2k-1), k = 2..k_max, made one at a
    time."""
    return (report(2 * k, 2 * k - 1) for k in range(2, k_max + 1))


def trace_parts(r, sep, pair_format):
    """The pinch trace of report r as the text sep.join(pair_format % pair
    for each pair), made in parts: each run's start pairs, each followed
    by sep, pinch.STEP_BATCH pairs a part (pinch.batches), then the pair
    the walk ends on.  The trace is the start of each step of the walk,
    then that end; it is (r.p, r.q) alone when the walk takes no step."""
    for run in r.pinch_runs:
        ps, qs, *_ = run_columns(run)
        yield from batches(pair_format + sep, ps, qs)
    yield pair_format % walk_end(r, r.pinch_runs)


def _cells(r, null):
    """The scalar fields of report r as row cells: the nine ints, exact as
    true or false, and gamma3_upper, or null when it is absent."""
    return r[:9] + ("true" if r.exact else "false",
                    null if r.gamma3_upper is None else r.gamma3_upper)


def json_parts(r):
    """Deterministic JSON text for one report, in parts: its scalar fields
    in field order, then "pinch_trace", the list of trace pairs in
    batches, laid out as json.dumps(indent=2) lays them out, then the
    closing brackets."""
    head, pair, tail = _JSON_TEMPLATES[""]
    yield head % _cells(r, "null")
    yield from trace_parts(r, ",", pair)
    yield tail


def _after_first_step(runs):
    """The runs of a walk without its first step: step i of a run starts
    at (p - 2ia, q - 2ib), so the run's steps 1..n-1 are a run of n - 1
    steps from (p - 2a, q - 2b)."""
    p, q, a, b, kind, n = runs[0]
    if n == 1:
        return runs[1:]
    return ((p - 2 * a, q - 2 * b, a, b, kind, n - 1),) + runs[1:]


def write_rows(rows, out, fmt):
    """Write each report of rows to out as it is made: CSV or TSV lines
    under a header, or a JSON list of the reports' JSON texts, laid out as
    json.dumps(indent=2) lays out a list, plus a newline.

    In JSON, a row whose walk is the previous row's walk with one step put
    in front, and which ends where that walk ends, reuses the previous
    row's trace text: it is the pair runs[0][:2], a comma and that text.
    That is exact, because the trace is the start of every step, then the
    walk's end.  The starts of the row's walk are runs[0][:2] followed by
    the starts of its walk without the first step, which are the previous
    row's, and both walks end on the same pair.  The end check matters
    when the row takes one step and the previous row none.  Each row of
    the family T(2k, 2k-1) after the first reuses its predecessor's trace,
    so the table formats one new pair per row.  A row is written in its
    four pieces, not joined first, so that no copy of a long trace is made
    only to be written."""
    if fmt == JSON:
        head, pair, tail = _JSON_TEMPLATES["  "]
        sep, prev, trace = "[\n  ", None, ""
        for r in rows:
            runs = r.pinch_runs
            if (prev is not None and runs
                    and _after_first_step(runs) == prev.pinch_runs
                    and walk_end(r, runs) == walk_end(prev, prev.pinch_runs)):
                trace = pair % runs[0][:2] + "," + trace
            else:
                trace = "".join(trace_parts(r, ",", pair))
            out.writelines((sep, head % _cells(r, "null"), trace, tail))
            sep, prev = ",\n  ", r
        out.write("[]\n" if prev is None else "\n]\n")
        return
    if fmt not in (CSV, TSV):
        raise ValueError("unknown row format %r" % (fmt,))
    out.write(CSV_HEADER.replace(",", fmt) + "\n")
    line = _CSV_ROW.replace(",", fmt)
    for r in rows:
        out.write(line % _cells(r, ""))
