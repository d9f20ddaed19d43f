import json

import pytest

from crosscap4.errors import NotCoprime, OutOfRange
from crosscap4.reports import (CSV_HEADER, emit_csv, emit_json, family_table,
                               report)


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
    with pytest.raises(NotCoprime):
        report(6, 4)


def test_report_out_of_range():
    with pytest.raises(OutOfRange):
        report(0, 1)


def test_family_table():
    table = family_table(4)
    assert [r.gamma4_lower for r in table] == [1, 2, 3]
    assert all(r.exact for r in table)
    for r, k in zip(table, range(2, 5)):
        assert r.sigma_left == 2 * k * k - 2
        assert r.t0 == (k * k - k) // 2
        assert r.d_minus1_left == k * k - k
    assert len(family_table(2)) == 1


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


def test_csv_format():
    text = emit_csv(family_table(3))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert emit_csv([report(4, 3)]).strip().split("\n")[1].endswith(
        ",1,1,true,2")


def test_csv_empty_gamma3():
    row = emit_csv([report(5, 3)]).strip().split("\n")[1]
    assert row.endswith(",true,")
