import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import crosscap4
from crosscap4 import cli, heegaard, oracle, pinch, reports, torus
from crosscap4.cli import (FAMILY_MAX_K, MAX_DIGITS, PINCH_MAX_P,
                           PROFILE_MAX_DIGITS, PROFILE_MAX_ROWS, SCAN_MAX,
                           main)
from crosscap4.errors import ConsistencyError, InputError
from crosscap4.pinch import STEP_BATCH
from crosscap4.reports import CSV, write_rows
from crosscap4.torus import canonicalize
from oracles import check_same_text, report_dict, step_walk, trace_pairs

# Above MAX_DIGITS, and near 3,000 digits, where t0, sigma and c1^2 would
# pass Python's 4,300-digit limit on int-to-str conversion.
BIG = 10 ** (3 * MAX_DIGITS)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_human(capsys):
    code, out, err = run(capsys, "report", "4", "3")
    assert code == 0
    assert "gamma4 lower bound: 1" in out
    assert "gamma4 upper bound: 1" in out
    assert "gamma3 upper bound: 2" in out
    assert err == ""


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "4", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True


def test_report_json_streams_a_long_trace(capsys):
    r = reports.report(20001, 20000)
    pairs = trace_pairs(canonicalize(20001, 20000))
    assert len(pairs) > STEP_BATCH
    code, out, err = run(capsys, "report", "20001", "20000", "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(report_dict(r, pairs), indent=2) + "\n"


def test_report_json_on_a_multi_run_walk(capsys):
    r = reports.report(621645, 414437)
    assert [run[4] for run in r.pinch_runs] == [pinch.POSITIVE,
                                                 pinch.MIRRORED]
    pairs = trace_pairs(canonicalize(621645, 414437))
    code, out, err = run(capsys, "report", "621645", "414437", "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(report_dict(r, pairs), indent=2) + "\n"


def test_report_text_trace_line(capsys):
    pairs = trace_pairs(canonicalize(20001, 20000))
    code, out, err = run(capsys, "report", "20001", "20000")
    assert (code, err) == (0, "")
    assert out.endswith("\npinch trace: %s\n" % " -> ".join(
        "(%d,%d)" % pair for pair in pairs))


def test_report_determinism(capsys):
    _, out1, _ = run(capsys, "report", "6", "5", "--json")
    _, out2, _ = run(capsys, "report", "6", "5", "--json")
    assert out1 == out2


@pytest.mark.parametrize("p, q", [("-3", "2"), ("3", "-2"), ("-3", "-2")])
def test_report_canonicalizes_signs(capsys, p, q):
    _, expected, _ = run(capsys, "report", "3", "2")
    assert run(capsys, "report", p, q) == (0, expected, "")


def test_report_invalid_input(capsys):
    code, out, err = run(capsys, "report", "6", "4")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("fn", [
    reports.report, torus.canonicalize, torus.sigma_rec, oracle.sigma_lattice,
    heegaard.t0, torus.alexander])
def test_not_coprime_message(fn):
    with pytest.raises(InputError) as exc:
        fn(6, 4)
    assert str(exc.value) == "(6, 4) are not coprime"


@pytest.mark.parametrize("argv", [
    ["report", "6", "4"],
    ["report", "6", "4", "--json"],
    ["pinch", "6", "4"],
    ["pinch", "6", "4", "--gamma3"],
    ["dinv", "6", "4"],
    ["signature", "6", "4"],
    ["alexander", "6", "4"],
    ["profile", "6", "4", "--from", "0", "--to", "1"],
])
def test_not_coprime_exits_2_with_one_message(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: (6, 4) are not coprime\n")


@pytest.mark.parametrize("argv", [["report", "3", "2"],
                                  ["report", "3", "2", "--json"]])
def test_report_failed_check_leaves_stdout_empty(capsys, monkeypatch, argv):
    monkeypatch.setattr(reports, "invariants",
                        lambda p, q: (-2, 2, 1, 0, 2, 99))
    assert run(capsys, *argv) == (
        3, "", "internal error: lower bound 99 exceeds upper 1 for T(3,2)\n")


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--family", "2k", "--kmax", "4",
                       "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("p,q,")
    assert len(lines) == 4


def test_table_tsv_is_csv_with_tabs(capsys):
    _, csv_out, _ = run(capsys, "table", "--family", "2k", "--kmax", "4",
                        "--csv")
    code, out, _ = run(capsys, "table", "--family", "2k", "--kmax", "4")
    assert code == 0
    assert out == csv_out.replace(",", "\t")


def test_table_unknown_family_exits_2(capsys):
    # argparse's choices reject it before the command runs
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "3k", "--kmax", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# Help, usage and parse errors: no command, unknown or misspelt commands,
# options before the command, `--`, missing, malformed, unknown and
# conflicting arguments, and two inputs that parse.
ARGPARSE_EDGES = [
    [], ["-h"], ["--help"], ["--"], ["-x"], ["bogus"], ["rep"], ["Report"],
    ["-h", "report"], ["--", "report", "4", "3"], ["report", "--", "4", "3"],
    ["report"], ["report", "-h"], ["report", "4"], ["report", "x", "3"],
    ["report", "4", "3", "-h"], ["report", "4", "3", "--mirror"],
    ["report", "4", "3", "--json", "extra"], ["report", "4", "3", "--json"],
    ["table", "-h"], ["table", "--family", "2k"],
    ["table", "--family", "3k", "--kmax", "5"],
    ["table", "--kmax", "x", "--family", "2k"],
    ["table", "--family", "2k", "--kmax", "5", "--csv", "--json"],
    ["scan"], ["scan", "--max"], ["scan", "--max", "5", "--json"],
    ["pinch", "-h"], ["pinch", "4", "3", "--gamma3=1"],
    ["signature", "6"], ["signature", "6", "5"], ["alexander", "-h"],
    ["dinv", "a", "b"], ["profile", "-h"], ["profile", "4", "3", "--from", "1"],
    ["profile", "21", "8", "--from", "0", "--to", "1", "--mirror"],
    ["audit", "-h"], ["audit", "--g", "1"],
]


def run_to_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", ARGPARSE_EDGES, ids=str)
def test_one_command_parser_reads_as_the_whole_tree(capsys, monkeypatch,
                                                    argv, columns):
    # main reads a command line with _plain and gives the rest to the whole
    # tree; its exit code, output, help, usage and error text must equal
    # those of the whole tree reading every line.
    monkeypatch.setenv("COLUMNS", columns)
    shipped = run_to_exit(capsys, argv)
    monkeypatch.setattr(cli, "_plain", lambda argv: None)
    assert run_to_exit(capsys, argv) == shipped


# argparse's own errors at 80 columns: the usage line lists every command,
# and an unknown command is checked against the whole list.  A leading ...
# compares only the last lines, with quotes dropped: newer Pythons print
# the choices without them.
USAGE = ["usage: crosscap4 [-h]",
         "                 {report,table,scan,pinch,signature,alexander,"
         "dinv,profile,audit}",
         "                 ..."]


@pytest.mark.parametrize("argv, expected", [
    (["profile", "21", "8", "--from", "0", "--to", "1", "--mirror"],
     [*USAGE, "crosscap4: error: unrecognized arguments: --mirror"]),
    (["bogus"],
     [..., "crosscap4: error: argument command: invalid choice: bogus "
           "(choose from report, table, scan, pinch, signature, alexander, "
           "dinv, profile, audit)"]),
], ids=["unrecognized", "invalid-choice"])
def test_argparse_error_text(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_to_exit(capsys, argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    if expected[0] is ...:
        expected = expected[1:]
        lines = [line.replace("'", "") for line in lines[-len(expected):]]
    assert lines == expected


@pytest.mark.parametrize("argv, built, code", [
    (["signature", "6", "5"], 0, 0),  # plain: parsed from COMMANDS
    (["signature", "6"], 9, 2),  # the whole tree words the error
    (["-h"], 9, 0),
])
def test_only_a_line_that_is_not_plain_builds_the_parser(capsys, monkeypatch,
                                                         argv, built, code):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run_to_exit(capsys, argv)[0] == code
    assert len(names) == built


def argparse_vars(argv):
    """vars() of the whole tree's namespace for argv, or None where argparse
    prints help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_plain_is_argparse(argv):
    plain = cli._plain(argv)
    assert plain is None or vars(plain) == argparse_vars(argv), argv


# Plain command lines, which main parses without argparse: the benchmark
# workloads' and one of each other shape.
PLAIN = [
    ["scan", "--max", "70", "--csv"],
    ["table", "--family", "2k", "--kmax", "200", "--json"],
    ["signature", "2999", "2993"],
    ["pinch", "121091", "121090"],
    ["report", "20001", "20000", "--json"],
    ["pinch", "2998", "3", "--gamma3"],
    ["profile", "21", "8", "--from", "0", "--to", "5", "--csv"],
    ["audit", "--g", "1", "--m", "2", "--d", "0"],
]
FLAGS = sorted({flag for _, _, arguments in cli.COMMANDS.values()
                for arg in arguments
                for flag, _ in (arg if isinstance(arg, list) else [arg])
                if flag.startswith("-")})
# Command names, flags and values, and what only argparse reads:
# `--opt=value`, an abbreviation, help, `--`, a negative number, a leading
# space, an underscore, a word, a choice not offered and an int too long
# for int() to convert.
TOKENS = [*cli.COMMANDS, *FLAGS, "4", "--kmax=5", "--js", "-h", "--", "-3",
          " 6", "1_0", "x", "2k", "3k", "1" * 4301]


def edited(argv, edits):
    """argv with each (i, token) of edits applied in turn: token inserted
    at i, or, for None, the token at i deleted (i taken mod the length)."""
    argv = list(argv)
    for i, token in edits:
        if token is not None:
            argv.insert(i % (len(argv) + 1), token)
        elif argv:
            del argv[i % len(argv)]
    return argv


# Free token strings are seldom plain, so lines a few edits away from a
# plain one are drawn too: plain or not, they probe where the two differ.
command_lines = (
    st.lists(st.sampled_from(TOKENS), max_size=9) |
    st.builds(edited, st.sampled_from(PLAIN),
              st.lists(st.tuples(st.integers(0, 9),
                                 st.none() | st.sampled_from(TOKENS)),
                       max_size=3)))


@settings(max_examples=400, deadline=None)
@given(command_lines)
def test_plain_parse_is_argparse(argv):
    assert_plain_is_argparse(argv)


@pytest.mark.parametrize("argv", ARGPARSE_EDGES, ids=str)
def test_plain_parse_is_argparse_on_edges(argv):
    assert_plain_is_argparse(argv)


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_command_lines_need_no_argparse(argv):
    assert cli._plain(argv) is not None
    assert_plain_is_argparse(argv)


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "--max", "6")
    assert code == 0
    assert "exact rows:" in out


def test_scan_streams_rows_before_a_failed_check(capsys, monkeypatch):
    made = []

    def third_pair_fails(p, q, _report=reports.report):
        if len(made) == 2:
            raise ConsistencyError("check failed at T(%d,%d)" % (p, q))
        made.append(_report(p, q))
        return made[-1]

    monkeypatch.setattr(reports, "report", third_pair_fails)
    code, out, err = run(capsys, "scan", "--max", "6", "--csv")
    assert code == 3
    assert err == "internal error: check failed at T(5,2)\n"
    expected = io.StringIO()
    write_rows(made, expected, CSV)
    assert [(r.p, r.q) for r in made] == [(3, 2), (4, 3)]
    assert out == expected.getvalue()
    assert out.count("\n") == 3


@pytest.mark.parametrize("argv", [["pinch", "100000", "99999"],
                                  ["scan", "--max", "200", "--csv"],
                                  ["report", "200001", "200000", "--json"]])
def test_closed_stdout_exits_quietly(argv):
    src = os.path.dirname(os.path.dirname(crosscap4.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "crosscap4.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline()
    proc.stdout.close()  # the reader goes away, as with `| head -1`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_pinch_trace(capsys):
    code, out, _ = run(capsys, "pinch", "8", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "(8,7) --t=1,h=1--> (6,5)"
    assert len(lines) == 3


STEP_LINE = "(%d,%d) --t=%d,h=%d--> (%d,%d)\n"


def oracle_lines(p, q, gamma3=False):
    return "".join(STEP_LINE % step
                   for step in step_walk(canonicalize(p, q), gamma3))


@pytest.mark.parametrize("argv, bound", [
    (("20001", "20000"), "gamma4"),  # one run of 10,000 > STEP_BATCH
    (("2998", "3", "--gamma3"), "gamma3"),  # a 500-step tail
    (("621645", "414437"), "gamma4"),  # two runs, the second mirrored
    (("6298", "3", "--gamma3"), "gamma3"),  # a 1,050-step tail
])
def test_pinch_output_equals_step_walk(capsys, argv, bound):
    # The first case spans several batches, the tail of 6298 3 two.
    assert STEP_BATCH < 1050 < 2 * STEP_BATCH < 10000
    code, out, err = run(capsys, "pinch", *argv)
    assert (code, err) == (0, "")
    check_same_text(out, oracle_lines(int(argv[0]), int(argv[1]),
                                      bound == "gamma3"))


# Pinned bytes of `pinch`: the sha256 of the whole output, or its last
# lines.  The digests cover a POSITIVE run then a 4,933-step MIRRORED run,
# one POSITIVE run of 60,545 steps, and a one-step walk then a 500-step
# tail.
PINCH_PINS = [
    (["pinch", "621645", "414437"], "sha256",
     "af5bd9cdc7335ca2988385bf494efe53d2ae2ea2477225b7c6d43e810c2a4837"),
    (["pinch", "121091", "121090"], "sha256",
     "0344e2b6aa6389aff821c0016bd952e17a879af051d2ad7cd2de57dd017eafa0"),
    (["pinch", "2998", "3", "--gamma3"], "sha256",
     "312da2087d1e863ad8fc5f07931a31e8665b53efef9e4cf91b8c2232d8baef1d"),
    (["pinch", "2998", "3", "--gamma3"], "tail",
     "(4,1) --t=3,h=0--> (-2,1)\n(2,1) --t=1,h=0--> (0,1)\n"),
    (["pinch", "1000000", "999999"], "tail", "(4,3) --t=1,h=1--> (2,1)\n"),
]


@pytest.mark.parametrize("argv, kind, pin", PINCH_PINS)
def test_pinch_pins(capsys, argv, kind, pin):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if kind == "sha256":
        assert hashlib.sha256(out.encode()).hexdigest() == pin
    else:  # the last pin.count("\n") lines
        lines = out.splitlines(keepends=True)
        assert "".join(lines[-pin.count("\n"):]) == pin


# Pinned sha256 of whole `report` certificates, whose trace pairs the
# report trace prints pinch.STEP_BATCH at a time: a POSITIVE run then a
# 4,933-step MIRRORED run as `--json` and as text, and the text
# certificate of a 499,999-step trace.
REPORT_PINS = [
    (["report", "621645", "414437", "--json"],
     "3b915b1f0442ccda6ab53d0d0ddbbcba9aff48e15ff56e2bf478f86ae47a349d"),
    (["report", "1000000", "999999"],
     "f34fa427307878594b29fb50255b13ec7fbe4a21aec943313d3a1f9e9246f1b6"),
    (["report", "621645", "414437"],
     "8e7234926c11936418659bd80a1fda0869ab21c29eb32b668430286674919462"),
]


@pytest.mark.parametrize("argv, pin", REPORT_PINS)
def test_report_pins(capsys, argv, pin):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == pin


# Pinned output of the other commands: its sha256, or its whole text.  The
# scan and family tables are the census and family benchmark workloads'
# outputs.  The whole family table, 21,448,522 bytes, reuses each row's
# trace text in the next.  alexander checks heegaard.t0 against
# oracle.alexander_t0.  dinv reads both hands from the invariants kernel
# and prints d(+1) by the mirror rule; profile picks its knot's hand from
# it, and a negative p names the mirror.
OUTPUT_PINS = [
    (["profile", "-21", "8", "--from", "-300", "--to", "300", "--csv"],
     "sha256",
     "baa950d0dc93d4672c4bd8cfe67c1b4a670c0ee991a4ee9a28c96171cf2c8e1c"),
    (["profile", "21", "8", "--from", "-300", "--to", "300"], "sha256",
     "259b75fc6f07458b821ffbe581e3b06d85f9dcfa00d2ad0853d9a488525f6d3a"),
    (["scan", "--max", "70", "--csv"], "sha256",
     "8ed84c85a92f5ca8a0a95e71b0af873a778c885f9ecc60acb045a700328efce1"),
    (["table", "--family", "2k", "--kmax", "200", "--json"], "sha256",
     "1a55383e73a4e3a6d1b5e8bfba93c4b588bd635e616f3bd23d6cdf33f9d9a9d6"),
    (["table", "--family", "2k", "--kmax", "1000", "--json"], "sha256",
     "b327e4da9247a67dc6ccdcc9db5a7836052a9583c7105d30fdfdc856660989d9"),
    (["alexander", "7", "5"], "text",
     "T^12 - T^11 + T^7 - T^6 + T^5 - T^4 + T^2 - T + 1 - T^-1 + T^-2"
     " - T^-4 + T^-5 - T^-6 + T^-7 - T^-11 + T^-12\nt0 = 4\n"),
    (["dinv", "1000001", "1000000"], "text",
     "right-handed: d(-1) = 0, d(+1) = -250000500000\n"
     "left-handed:  d(-1) = 250000500000, d(+1) = 0\n"),
]


@pytest.mark.parametrize("argv, kind, pin", OUTPUT_PINS)
def test_output_pins(capsys, argv, kind, pin):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if kind == "sha256":
        assert hashlib.sha256(out.encode()).hexdigest() == pin
    else:
        assert out == pin


def pinch_cases(ps):
    """(p, q, gamma3) for each coprime pair 1 <= q < p with p in ps:
    without the in-S^3 continuation, and with it where p*q is even."""
    return [(p, q, gamma3) for p in ps for q in range(1, p)
            if math.gcd(p, q) == 1
            for gamma3 in (False, True)
            if not gamma3 or p * q % 2 == 0]


@pytest.mark.parametrize("batch", [1, 2, 3, STEP_BATCH])
def test_pinch_output_at_every_batch_boundary(monkeypatch, batch):
    # Each batch is one part of pinch.batches; small batches put a boundary
    # after every step of short walks.  The report trace reads the same
    # batch size, so it is cut there too.
    monkeypatch.setattr(pinch, "STEP_BATCH", batch)
    cases = pinch_cases(range(2, 100))
    if batch >= 3:  # walks that print on both sides of 1,000, where
        # a column's digit count changes and pinch.batches cuts a block
        cases += pinch_cases(range(990, 1011))
    if batch == 3:  # an 11-step POSITIVE run with (a, b) = (29602, 19735)
        cases.append((621645, 414437, False))
    if batch >= 3:  # runs that cross 10^4 and 10^5, and a MIRRORED run
        # of 2,000 steps whose p, t and r step by 500
        cases += [(10001, 10000, False), (100001, 100000, False),
                  (999999, 4000, False)]
    for p, q, gamma3 in cases:
        argv = ["pinch", str(p), str(q)]
        if gamma3:
            argv.append("--gamma3")
        args, out = cli._plain(argv), io.StringIO()
        assert args is not None, argv
        assert args.func(args, out) == 0
        check_same_text(out.getvalue(), oracle_lines(p, q, gamma3), argv)
        if gamma3:
            assert reports.report(p, q).gamma3_upper == max(
                1, out.getvalue().count("\n")), argv
        else:
            r = reports.report(p, q)
            parts = list(reports.trace_parts(r, " -> ", "(%d,%d)"))
            assert len(parts) == 1 + sum(-(-n // batch)
                                         for *_, n in r.pinch_runs)
            assert "".join(parts) == " -> ".join(
                map("(%d,%d)".__mod__, trace_pairs(canonicalize(p, q))))


@pytest.mark.parametrize("argv", [
    ["pinch", "47", "26"],
    ["pinch", "47", "26", "--gamma3"],
    ["report", "47", "26"],
    ["report", "47", "26", "--json"],
])
def test_failed_pinch_check_leaves_stdout_empty(capsys, monkeypatch, argv):
    # T(47,26) walks a run of 3 steps from (47,26), then one of 2 from (7,4).
    # The inverses of the second run's start are made wrong: the walk fails
    # its check before anything of the first run is printed.
    starts = []

    def bad_second_inverse(p, q, _step=pinch.pinch_step):
        t, h = _step(p, q)
        starts.append((p, q))
        return (t + 1, h) if len(starts) == 2 else (t, h)

    monkeypatch.setattr(pinch, "pinch_step", bad_second_inverse)
    assert run(capsys, *argv) == (
        3, "", "internal error: pinch inverses t=6, h=3 fail "
               "p*h - q*t = 1 at (7, 4)\n")
    assert starts == [(47, 26), (7, 4)]


def test_pinch_gamma3(capsys):
    code, out, _ = run(capsys, "pinch", "4", "3", "--gamma3")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_pinch_gamma3_parity_error(capsys):
    # checked before the walk, so nothing is printed
    assert run(capsys, "pinch", "7", "3", "--gamma3") == (
        2, "", "error: in-S^3 continuation needs p*q even, got T(7,3)\n")


def test_signature(capsys):
    code, out, _ = run(capsys, "signature", "6", "5")
    assert code == 0
    assert "recursion: 16" in out
    assert "lattice:   16" in out


@pytest.mark.parametrize("p, q", [("1", "1"), ("2", "1"), ("1", "2")])
def test_signature_of_unknots(capsys, p, q):
    assert run(capsys, "signature", p, q) == (
        0, "recursion: 0\nlattice:   0\n", "")


def test_signature_rejects_a_zero_coordinate(capsys):
    assert run(capsys, "signature", "1", "0") == (
        2, "", "error: need nonzero p, q, got (1, 0)\n")


@pytest.mark.parametrize("p, q", [
    (1000002, 1000001),
    (2000000000000000001, 2000000000000000000),
])
def test_signature_at_any_size(capsys, p, q):
    code, out, err = run(capsys, "signature", str(p), str(q))
    assert (code, err) == (0, "")
    rec, lat = out.splitlines()
    assert rec.startswith("recursion: ") and lat.startswith("lattice: ")
    assert rec.split()[-1] == lat.split()[-1]


def test_alexander(capsys):
    code, out, _ = run(capsys, "alexander", "4", "3")
    assert code == 0
    assert "T^3 - T^2 + 1 - T^-2 + T^-3" in out
    assert "t0 = 1" in out


def test_alexander_engine_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(heegaard, "t0", lambda p, q: 2)
    code, out, err = run(capsys, "alexander", "4", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: t0 engines disagree")


def test_alexander_asymmetric_polynomial_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(torus, "alexander", lambda p, q: {1: 1})
    code, out, err = run(capsys, "alexander", "4", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_dinv(capsys):
    code, out, _ = run(capsys, "dinv", "4", "3")
    assert code == 0
    assert "right-handed: d(-1) = 0, d(+1) = -2" in out
    assert "left-handed:  d(-1) = 2, d(+1) = 0" in out


def test_dinv_computes_t0_once(capsys, monkeypatch):
    calls = []
    t0 = heegaard.t0

    def counted(p, q):
        calls.append((p, q))
        return t0(p, q)

    # rebind t0 wherever a crosscap4 module imported it, heegaard included
    for name, mod in list(sys.modules.items()):
        if name == "crosscap4" or name.startswith("crosscap4."):
            if getattr(mod, "t0", None) is t0:
                monkeypatch.setattr(mod, "t0", counted)
    code, out, _ = run(capsys, "dinv", "7", "4")
    assert code == 0
    assert calls == [(7, 4)]
    assert "right-handed: d(-1) = 0, d(+1) = -8" in out
    assert "left-handed:  d(-1) = 8, d(+1) = 0" in out


def test_profile_csv(capsys):
    code, out, _ = run(capsys, "profile", "-4", "3",
                       "--from", "3", "--to", "5", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,sig_bound,d_bound,combined"
    assert lines[2] == "4,2,0,2"


def test_audit(capsys):
    code, out, _ = run(capsys, "audit", "--g", "1", "--m", "2", "--d", "0")
    assert code == 0
    assert "c1^2 = -32/7" in out
    assert "consistent" in out


def test_audit_out_of_range(capsys):
    code, _, err = run(capsys, "audit", "--g", "2", "--m", "1", "--d", "0")
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("argv", [
    ["profile", "4", "3", "--from", "10", "--to", "1"],
    ["table", "--family", "2k", "--kmax", "1"],
    ["audit", "--g", "-1", "--m", "1", "--d", "0"],
    ["signature", "1", "0"],
    ["alexander", "4001", "1001"],
    ["pinch", str(PINCH_MAX_P + 1), str(PINCH_MAX_P)],
    ["pinch", str(PINCH_MAX_P + 1), str(PINCH_MAX_P), "--gamma3"],
    ["report", str(PINCH_MAX_P + 1), str(PINCH_MAX_P)],
    ["report", str(PINCH_MAX_P + 1), str(PINCH_MAX_P), "--json"],
    ["signature", str(10 ** MAX_DIGITS + 1), "2"],
    ["table", "--family", "2k", "--kmax", str(FAMILY_MAX_K + 1)],
    ["scan", "--max", str(SCAN_MAX + 1)],
    ["profile", "4", "3", "--from", "1", "--to", str(PROFILE_MAX_ROWS + 1)],
    # 1,000-digit p and q: rows of 2,000-digit integers
    ["profile", str(10 ** MAX_DIGITS - 1), str(10 ** MAX_DIGITS - 2),
     "--from", "0", "--to", str(PROFILE_MAX_DIGITS // (2 * MAX_DIGITS))],
    ["alexander", "-3", "2"],
    ["alexander", "3", "-2"],
    ["dinv", str(BIG + 1), str(BIG)],
    ["profile", str(BIG + 1), str(BIG), "--from", "0", "--to", "2"],
    ["audit", "--g", str(BIG), "--m", str(BIG), "--d", "0"],
    # argparse takes a second `--` as a positional's value, and reads it
    # as an empty list
    ["signature", "--", "2993", "--"],
    ["report", "4", "--", "--"],
])
def test_out_of_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Bad input with its exact error line.  Each command checks its own
# limits (cli.py) before any work: the in-S^3 parity and the walk's limit
# before the walk, k_max before the first row, the framing window before
# the invariants.  profile's limit falls with the digits of p*q + |n|:
# 5,000 framings at 1,000-digit p and q.
ERROR_PINS = [
    (["pinch", "4", "6"], "error: (4, 6) are not coprime"),
    (["pinch", "7", "3", "--gamma3"],
     "error: in-S^3 continuation needs p*q even, got T(7,3)"),
    (["pinch", "1000001", "1000000"],
     "error: pinch accepts p <= 1000000, got 1000001"),
    (["report", "1000001", "1000000", "--json"],
     "error: pinch accepts p <= 1000000, got 1000001"),
    (["report", "0", "5"], "error: need nonzero p, q, got (0, 5)"),
    (["table", "--family", "2k", "--kmax", "1001"],
     "error: need 2 <= k_max <= 1000, got 1001"),
    (["profile", "4", "3", "--from", "2", "--to", "1"],
     "error: empty framing window [2, 1]"),
    (["profile", "4", "3", "--from", "1", "--to", "1000001"],
     "error: profile accepts at most 1000000 framings, got 1000001"),
    (["profile", str(10 ** 1000 - 1), str(10 ** 1000 - 2),
      "--from", "0", "--to", "5000"],
     "error: profile accepts at most 5000 framings, got 5001"),
]


@pytest.mark.parametrize("argv, message", ERROR_PINS)
def test_error_pins(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message + "\n")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["pinch {} {}", "pinch {} {} --gamma3",
                        "signature {} {}", "report {} {}",
                        "report {} {} --json", "alexander {} {}",
                        "dinv {} {}", "profile {} {} --from -2 --to 2",
                        "profile 4 3 --from {} --to {}",
                        "table --family 2k --kmax {}",
                        "audit --g {} --m {} --d 1"]),
       st.integers() | st.integers(-BIG, BIG),
       st.integers() | st.integers(-BIG, BIG))
def test_exit_code_contract(cmd, p, q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(cmd.format(p, q).split())
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        prefix = "error: " if code == 2 else "internal error: "
        assert code in (2, 3) and out.getvalue() == ""
        assert err.startswith(prefix) and err.count("\n") == 1


# Whole command lines over all nine commands: argparse's own exits count,
# as SystemExit, and exit 2 leaves stdout empty whichever parser words it.
@settings(max_examples=300, deadline=None)
@given(command_lines)
def test_exit_code_contract_on_any_command_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out.getvalue() == "", argv
