import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscap4 import bounds, heegaard, pinch, reports, torus
from crosscap4.bounds import invariants
from crosscap4.cli import FAMILY_MAX_K, main
from crosscap4.errors import InputError
from crosscap4.pinch import MIRRORED, POSITIVE, STEP_BATCH
from crosscap4.reports import (CSV, CSV_HEADER, JSON, TSV, BoundReport,
                               family_table, json_parts, report, trace_parts,
                               write_rows)
from crosscap4.torus import canonicalize
from oracles import check_same_text, report_dict, trace_pairs


def trace_text(r):
    return "".join(trace_parts(r, " -> ", "(%d,%d)"))


def emit_json(r):
    """The JSON text of one report, as `report --json` prints it."""
    return "".join(json_parts(r))


def oracle_dict(r):
    """The JSON object of a real report, its trace made by step_walk."""
    return report_dict(r, trace_pairs(canonicalize(r.p, r.q)))


def test_report_t43():
    r = report(4, 3)
    assert r.gamma4_lower == 1
    assert r.gamma4_upper == 1
    assert r.exact
    assert r.gamma3_upper == 2
    assert r.pinch_runs == ((4, 3, 1, 1, POSITIVE, 1),)
    assert trace_text(r) == "(4,3) -> (2,1)"


def test_report_t10_9():
    r = report(10, 9)
    assert (r.gamma4_lower, r.gamma4_upper, r.exact) == (4, 4, True)


def test_report_t9_4_is_open():
    # Lobb, "A counterexample to Batson's conjecture" (2019): the genus of
    # T(4,9) is 1, so a lower bound of 2 here would be unsound.  The upper
    # bound is a construction, so lower < upper is an open row.
    r = report(9, 4)
    assert (r.gamma4_lower, r.gamma4_upper, r.exact) == (1, 2, False)


def test_report_unknot():
    r = report(1, 1)
    assert r.sigma_right == 0 and r.sigma_left == 0
    assert (r.gamma4_lower, r.gamma4_upper) == (1, 1)
    assert r.pinch_runs == ()
    assert trace_text(r) == "(1,0)"


def test_report_holds_one_run_per_displacement():
    r = report(10 ** 6, 10 ** 6 - 1)
    assert len(r.pinch_runs) == 1
    assert r.gamma4_upper == r.pinch_runs[0][5] == 10 ** 6 // 2 - 1


def test_report_t53_single_pinch():
    r = report(5, 3)
    assert r.gamma4_upper == 1
    assert r.gamma3_upper is None  # pq odd


def test_report_canonicalizes_input():
    assert report(3, 4) == report(4, 3)


def test_report_not_coprime():
    with pytest.raises(InputError, match=r"\(6, 4\) are not coprime"):
        report(6, 4)


def test_report_out_of_range(capsys):
    # The command refuses a zero coordinate; to the library (0, 1) is the
    # unknot.
    assert main(["report", "0", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: need nonzero p, q, got (0, 1)\n")
    assert report(0, 1) == report(1, 1)


def test_family_table():
    table = list(family_table(4))
    assert [r.gamma4_lower for r in table] == [1, 2, 3]
    assert all(r.exact for r in table)
    for r, k in zip(table, range(2, 5)):
        assert r.sigma_left == 2 * k * k - 2
        assert r.t0 == (k * k - k) // 2
        assert r.d_minus1_left == k * k - k
    assert len(list(family_table(2))) == 1


def test_json_deterministic():
    a = emit_json(report(4, 3))
    b = emit_json(report(4, 3))
    assert a == b
    payload = json.loads(a)
    assert payload["gamma4_lower"] == 1
    assert payload["pinch_trace"] == [[4, 3], [2, 1]]
    assert list(payload) == [
        "p", "q", "sigma_right", "sigma_left", "t0", "d_minus1_right",
        "d_minus1_left", "gamma4_lower", "gamma4_upper", "exact",
        "gamma3_upper", "pinch_trace"]


def written(rows, fmt=CSV):
    out = io.StringIO()
    write_rows(rows, out, fmt)
    return out.getvalue()


def test_csv_format():
    text = written(family_table(3))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert written([report(4, 3)]).strip().split("\n")[1].endswith(
        ",1,1,true,2")


def test_csv_empty_gamma3():
    row = written([report(5, 3)]).strip().split("\n")[1]
    assert row.endswith(",true,")


def test_bound_report_fields():
    assert BoundReport._fields == (
        "p", "q", "sigma_right", "sigma_left", "t0", "d_minus1_right",
        "d_minus1_left", "gamma4_lower", "gamma4_upper", "exact",
        "gamma3_upper", "pinch_runs")


def scan_reports(m):
    return [report(p, q) for p in range(3, m + 1) for q in range(2, p)
            if math.gcd(p, q) == 1]


def direct_rows(rows, sep):
    """The CSV/TSV text built cell by cell from the report fields."""
    names = BoundReport._fields[:-1]

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return "" if v is None else str(v)
    lines = [sep.join(names)]
    lines += [sep.join(cell(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make", [lambda: list(family_table(60)),
                                  lambda: scan_reports(40), list],
                         ids=["family60", "scan40", "empty"])
def test_write_rows_matches_stdlib_oracle(make):
    rows = make()
    assert written(iter(rows), JSON) == \
        json.dumps(list(map(oracle_dict, rows)), indent=2) + "\n"
    assert written(iter(rows), CSV) == direct_rows(rows, ",")
    assert written(iter(rows), TSV) == direct_rows(rows, "\t")


def test_write_rows_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown row format"):
        write_rows([], io.StringIO(), "xml")


def test_family_table_makes_rows_lazily(capsys, monkeypatch):
    made = []

    def counted(p, q, _report=report):
        made.append((p, q))
        return _report(p, q)

    monkeypatch.setattr(reports, "report", counted)
    rows = family_table(10 ** 999)
    assert made == []
    assert next(rows).p == 4 and made == [(4, 3)]
    # k_max is the command's limit, checked before the first row.
    assert main(["table", "--family", "2k", "--kmax", str(FAMILY_MAX_K),
                 "--csv"]) == 0
    assert capsys.readouterr().out.count("\n") == FAMILY_MAX_K
    made.clear()
    for k_max in (1, FAMILY_MAX_K + 1):
        assert main(["table", "--family", "2k", "--kmax", str(k_max)]) == 2
        assert capsys.readouterr() == (
            "", "error: need 2 <= k_max <= 1000, got %d\n" % k_max)
    assert made == []


def test_report_computes_each_invariant_once(monkeypatch):
    calls = {}
    for fn in (torus.sigma_rec, heegaard.t0, bounds.invariants,
               pinch.pinch_runs, pinch.landing, pinch.tail):
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)

        # rebind the name wherever a crosscap4 module imported it
        for name, mod in list(sys.modules.items()):
            if name == "crosscap4" or name.startswith("crosscap4."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
    report(10, 9)
    # landing checks the walk's one run, (10, 9) -> (2, 1), and then
    # finds where the walk ends, which tail continues to (0, 1)
    assert calls == {"sigma_rec": 1, "t0": 1, "invariants": 1,
                     "pinch_runs": 1, "landing": 2, "tail": 1}


@pytest.mark.parametrize("p, q, runs, steps", [
    (20001, 20000, 1, 10000), (621645, 414437, 2, 4944)])
def test_a_wrapper_around_pinch_runs_sees_the_whole_walk(monkeypatch, p, q,
                                                         runs, steps):
    # As a tracer outside the program would: the wrapper sees only what
    # pinch_runs returns, so the walk must be whole when it returns.
    seen = []

    def traced(K, _walk=reports.pinch_runs):
        result = _walk(K)
        seen.append((len(result), sum(run[5] for run in result)))
        return result

    monkeypatch.setattr(reports, "pinch_runs", traced)
    r = report(p, q)
    assert seen == [(runs, steps)]
    assert r.gamma4_upper == steps


coprime = st.tuples(st.integers(1, 2000), st.integers(1, 2000)).filter(
    lambda pq: math.gcd(*pq) == 1)


@settings(deadline=None)
@given(coprime)
@example((621645, 414437))  # a POSITIVE run, then a MIRRORED one
def test_report_properties(pq):
    p, q = pq
    r = report(p, q)
    assert report(q, p) == r
    assert r.gamma4_lower <= r.gamma4_upper
    K = canonicalize(p, q)
    assert r[2:8] == invariants(K.p, K.q)
    pairs = trace_pairs(K)
    assert r.gamma4_upper == max(1, len(pairs) - 1)
    check_same_text(trace_text(r), " -> ".join(map("(%d,%d)".__mod__, pairs)))
    check_same_text(emit_json(r),
                    json.dumps(report_dict(r, pairs), indent=2))


big_ints = st.integers() | st.integers(-2 ** 70, 2 ** 70)


def expanded(r):
    """The trace of report r by its definition: step i < n of a run
    (p, q, a, b, kind, n) starts at (p - 2ia, q - 2ib), and the trace ends
    on the canonical pair the last step lands on, or on (r.p, r.q) when
    there is no run."""
    pairs = [(p - 2 * i * a, q - 2 * i * b)
             for p, q, a, b, _, n in r.pinch_runs for i in range(n)]
    if not r.pinch_runs:
        return pairs + [(r.p, r.q)]
    p, q, a, b, _, n = r.pinch_runs[-1]
    land = sorted((abs(p - 2 * n * a), abs(q - 2 * n * b)), reverse=True)
    return pairs + [tuple(land)]


@st.composite
def synthetic_reports(draw):
    """BoundReports with arbitrary field values and up to two runs of
    arbitrary pairs and nonzero displacements (the walk never takes a zero
    one), each of a few or STEP_BATCH + 1 steps, so the trace can hold 1
    pair, a few, or more than one batch."""
    names = BoundReport._fields
    values = {n: draw(big_ints) for n in names[:9]}
    runs = draw(st.lists(st.tuples(
        big_ints, big_ints, big_ints.filter(bool), big_ints.filter(bool),
        st.sampled_from([POSITIVE, MIRRORED]),
        st.integers(1, 3) | st.just(STEP_BATCH + 1)), max_size=2))
    return BoundReport(
        **values, exact=draw(st.booleans()),
        gamma3_upper=draw(st.none() | big_ints), pinch_runs=tuple(runs))


def filled(runs, exact, gamma3_upper, value):
    return BoundReport(*[value] * 9, exact=exact, gamma3_upper=gamma3_upper,
                       pinch_runs=runs)


@settings(deadline=None)
@given(synthetic_reports())
@example(filled((), True, None, -1))
@example(filled(((2 ** 64 + 1, -(2 ** 65), 1, -1, POSITIVE, 1),), False,
                2 ** 64, 2 ** 64 + 1))
@example(filled(((5, 4, 1, 1, POSITIVE, 2 * STEP_BATCH),
                 (3, 2, 1, 1, MIRRORED, 1)), True, 7, -3))
def test_emit_json_matches_stdlib_on_synthetic_reports(r):
    check_same_text(emit_json(r),
                    json.dumps(report_dict(r, expanded(r)), indent=2))
    check_same_text(trace_text(r),
                    " -> ".join(map("(%d,%d)".__mod__, expanded(r))))


@st.composite
def chains(draw):
    """A synthetic report with at least one run, then up to three parents,
    each the one before with a step put in front of its first run:
    (p, q, a, b, kind, n) becomes (p + 2a, q + 2b, a, b, kind, n + 1), and
    every other field is drawn anew.  write_rows reuses a row's trace text
    for its parent."""
    rows = [draw(synthetic_reports().filter(lambda r: r.pinch_runs))]
    for _ in range(draw(st.integers(0, 3))):
        p, q, a, b, kind, n = rows[-1].pinch_runs[0]
        runs = ((p + 2 * a, q + 2 * b, a, b, kind, n + 1),) \
            + rows[-1].pinch_runs[1:]
        rows.append(draw(synthetic_reports())._replace(pinch_runs=runs))
    return rows


def unknot_row(p, q):
    """A report with no run, ending on (p, q)."""
    return filled((), True, None, 0)._replace(p=p, q=q)


@settings(deadline=None, max_examples=50)
@given(st.lists(chains() | synthetic_reports().map(lambda r: [r]),
                max_size=3).map(lambda parts: sum(parts, [])))
@example([filled((), False, None, 0),
          filled(((3, 2, 1, 1, POSITIVE, 1),), True, 1, 5)])
# a reused row's new pair is its first run's start, not (r.p, r.q)
@example([filled(((3, 2, 1, 1, POSITIVE, 1),), True, 1, 7),
          filled(((5, 4, 1, 1, POSITIVE, 2),), True, 1, 7)])
# a one-step row after a row with no run, landing on that row's pair:
# the walk without its first step matches, and so does the end
@example([unknot_row(2, 1), filled(((4, 3, 1, 1, POSITIVE, 1),), True, 1, 0)])
# the same, landing on (3, 1) instead: the walks match but the ends differ
@example([unknot_row(2, 1), filled(((5, 3, 1, 1, POSITIVE, 1),), True, 1, 0)])
def test_write_rows_json_matches_stdlib_on_synthetic_reports(rows):
    # Unrelated rows mixed with chains, whose rows reuse trace text.
    check_same_text(
        written(iter(rows), JSON),
        json.dumps([report_dict(r, expanded(r)) for r in rows], indent=2)
        + "\n")


def test_write_rows_json_formats_one_trace_per_family_table(monkeypatch):
    # Each family row after the first reuses its predecessor's trace text.
    calls = []

    def counted(*args, _parts=trace_parts):
        calls.append(args[0].p)
        return _parts(*args)

    monkeypatch.setattr(reports, "trace_parts", counted)
    write_rows(family_table(200), io.StringIO(), JSON)
    assert calls == [4]


def family_report(steps):
    """The report of T(2k, 2k-1), whose walk is one run of k - 1 steps, or
    of the unknot for 0 steps."""
    k = steps + 1
    return report(2 * k, 2 * k - 1) if steps else report(1, 1)


def test_json_parts_hold_at_most_one_batch():
    r = family_report(3 * STEP_BATCH + 5)
    parts = list(json_parts(r))
    # the head, four batches of starts, the landing, the closing brackets
    assert len(parts) == 2 + 4 + 1
    pair_text = len(reports._JSON_PAIR % (r.p, r.q)) + 1
    assert max(map(len, parts)) <= STEP_BATCH * pair_text
    check_same_text("".join(parts), json.dumps(oracle_dict(r), indent=2))


@pytest.mark.parametrize("steps", [0, 1, 2, 4 * STEP_BATCH - 1,
                                   4 * STEP_BATCH, 4 * STEP_BATCH + 1,
                                   8 * STEP_BATCH + 3])
def test_batched_join_equals_whole_join(steps):
    # run lengths on each side of a batch boundary, 4 and 8 batches in
    r = family_report(steps)
    parts = list(trace_parts(r, " -> ", "(%d,%d)"))
    assert len(parts) == -(-steps // STEP_BATCH) + 1
    pairs = trace_pairs(canonicalize(r.p, r.q))
    assert len(pairs) == steps + 1
    check_same_text("".join(parts),
                    " -> ".join("(%d,%d)" % pq for pq in pairs))
    check_same_text(emit_json(r), json.dumps(report_dict(r, pairs), indent=2))
