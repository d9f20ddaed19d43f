import dataclasses
import io
import json
import math
import os
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscap4 import heegaard, pinch, reports, torus
from crosscap4.bounds import gamma4_lower
from crosscap4.errors import InputError
from crosscap4.reports import (CSV, CSV_HEADER, FAMILY_MAX_K, JSON,
                               TRACE_BATCH, TSV, BoundReport, batched_join,
                               emit_json, family_table, report, write_rows)
from crosscap4.torus import canonicalize, mirror


def test_report_t43():
    r = report(4, 3)
    assert r.gamma4_lower == 1
    assert r.gamma4_upper == 1
    assert r.exact
    assert r.gamma3_upper == 2
    assert r.pinch_trace == ((4, 3), (2, 1))


def test_report_t10_9():
    r = report(10, 9)
    assert (r.gamma4_lower, r.gamma4_upper, r.exact) == (4, 4, True)


def test_report_unknot():
    r = report(1, 1)
    assert r.sigma_right == 0 and r.sigma_left == 0
    assert (r.gamma4_lower, r.gamma4_upper) == (1, 1)


def test_report_t53_single_pinch():
    r = report(5, 3)
    assert r.gamma4_upper == 1
    assert r.gamma3_upper is None  # pq odd


def test_report_canonicalizes_input():
    assert report(3, 4) == report(4, 3)


def test_report_not_coprime():
    with pytest.raises(InputError, match=r"\(6, 4\) are not coprime"):
        report(6, 4)


def test_report_out_of_range():
    with pytest.raises(InputError, match=r"need nonzero p, q, got \(0, 1\)"):
        report(0, 1)


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


def scan_reports(m):
    return [report(p, q) for p in range(3, m + 1) for q in range(2, p)
            if math.gcd(p, q) == 1]


def direct_rows(rows, sep):
    """The CSV/TSV text built cell by cell from the report fields."""
    names = [f.name for f in dataclasses.fields(BoundReport)][:-1]

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
        json.dumps([vars(r) for r in rows], indent=2) + "\n"
    assert written(iter(rows), CSV) == direct_rows(rows, ",")
    assert written(iter(rows), TSV) == direct_rows(rows, "\t")


def test_write_rows_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown row format"):
        write_rows([], io.StringIO(), "xml")


def test_family_table_makes_rows_lazily(monkeypatch):
    made = []

    def counted(p, q, _report=report):
        made.append((p, q))
        return _report(p, q)

    monkeypatch.setattr(reports, "report", counted)
    rows = family_table(FAMILY_MAX_K)
    assert made == []
    assert next(rows).p == 4 and made == [(4, 3)]
    with pytest.raises(InputError, match="need 2 <= k_max <= 1000"):
        family_table(FAMILY_MAX_K + 1)
    with pytest.raises(InputError, match="need 2 <= k_max <= 1000"):
        family_table(1)


def test_report_computes_each_invariant_once(monkeypatch):
    calls = {}
    for fn in (torus.sigma_rec, heegaard.t0, pinch.pinch_runs):
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
    assert calls == {"sigma_rec": 1, "t0": 1, "pinch_runs": 1}


def check_same_text(text, expected):
    """Raise AssertionError naming the first difference, if any.  pytest
    would diff two long texts line by line, which takes minutes for a
    trace of thousands of pairs at each of hypothesis' shrink steps."""
    if text != expected:
        i = len(os.path.commonprefix([text, expected]))
        raise AssertionError("texts differ at character %d: %r != %r"
                             % (i, text[i:i + 40], expected[i:i + 40]))


coprime = st.tuples(st.integers(1, 2000), st.integers(1, 2000)).filter(
    lambda pq: math.gcd(*pq) == 1)


@settings(deadline=None)
@given(coprime)
def test_report_properties(pq):
    p, q = pq
    r = report(p, q)
    assert report(q, p) == r
    assert r.gamma4_lower <= r.gamma4_upper
    K = canonicalize(p, q)
    assert gamma4_lower(K) == gamma4_lower(mirror(K)) == r.gamma4_lower
    text = emit_json(r)
    check_same_text(text, json.dumps(vars(r), indent=2))
    payload = json.loads(text)
    payload["pinch_trace"] = tuple(map(tuple, payload["pinch_trace"]))
    assert BoundReport(**payload) == r


big_ints = st.integers() | st.integers(-2 ** 70, 2 ** 70)


@st.composite
def synthetic_reports(draw):
    """BoundReports with arbitrary field values; the trace repeats a short
    list of pairs once or TRACE_BATCH + 1 times, so it can hold 0 pairs,
    1 pair or more than one batch."""
    names = [f.name for f in dataclasses.fields(BoundReport)]
    values = {n: draw(big_ints) for n in names[:9]}
    pairs = draw(st.lists(st.tuples(big_ints, big_ints), max_size=3))
    return BoundReport(
        **values, exact=draw(st.booleans()),
        gamma3_upper=draw(st.none() | big_ints),
        pinch_trace=tuple(pairs * draw(st.sampled_from([1, TRACE_BATCH + 1]))))


def filled(trace, exact, gamma3_upper, value):
    return BoundReport(*[value] * 9, exact=exact, gamma3_upper=gamma3_upper,
                       pinch_trace=trace)


@settings(deadline=None)
@given(synthetic_reports())
@example(filled((), True, None, -1))
@example(filled(((2 ** 64 + 1, -(2 ** 65)),), False, 2 ** 64, 2 ** 64 + 1))
@example(filled(((5, 4), (3, 2)) * TRACE_BATCH + ((1, 0),), True, 7, -3))
def test_emit_json_matches_stdlib_on_synthetic_reports(r):
    check_same_text(emit_json(r), json.dumps(vars(r), indent=2))


@settings(deadline=None, max_examples=25)
@given(st.lists(synthetic_reports(), max_size=3))
@example([filled((), False, None, 0), filled(((3, 2),), True, 1, 5)])
def test_write_rows_json_matches_stdlib_on_synthetic_reports(rows):
    check_same_text(written(iter(rows), JSON),
                    json.dumps([vars(r) for r in rows], indent=2) + "\n")


def test_json_parts_hold_at_most_one_batch():
    trace = ((10 ** 6, 10 ** 6 - 1),) * (3 * TRACE_BATCH + 5)
    r = filled(trace, True, None, 0)
    parts = list(reports._json_parts(r))
    assert len(parts) == 2 + 4
    pair_text = len(reports._JSON_PAIR % trace[0]) + 1
    assert max(map(len, parts)) <= TRACE_BATCH * pair_text
    check_same_text("".join(parts), json.dumps(vars(r), indent=2))


@pytest.mark.parametrize("n", [0, 1, 2, TRACE_BATCH, TRACE_BATCH + 1,
                               2 * TRACE_BATCH + 3])
def test_batched_join_equals_whole_join(n):
    pairs = tuple((i, -i) for i in range(n))
    parts = list(batched_join(" -> ", "(%d,%d)", pairs))
    assert len(parts) == -(-n // TRACE_BATCH)
    check_same_text("".join(parts),
                    " -> ".join("(%d,%d)" % pq for pq in pairs))
