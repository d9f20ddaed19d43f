"""Byte-identity guard for the CLI certificates.

Runs the CLI in process over every 0 <= p, q <= 21 (and every scan/table
size up to 21) and compares one sha256 over the argument lists, exit codes
and stdout with a recorded digest.  A second digest covers `profile` (with
and without --csv, and with p negated for the mirror) for 0 <= p, q <= 9
and `audit` on a small grid.  A change to any certificate byte, to an
exit code, or to the set of inputs that succeed changes the digest; a
deliberate output change must re-record it and say why.
"""

import contextlib
import hashlib
import io

import pytest

from crosscap4 import cli

N = 21
GOLDEN_SHA256 = (
    "1616ce339722e0201a9ceff6d257e32ff80b6690496ab4fc37f764a5be268cf4")


def _argv_lists():
    for p in range(N + 1):
        for q in range(N + 1):
            a, b = str(p), str(q)
            yield ["report", a, b]
            yield ["report", a, b, "--json"]
            yield ["pinch", a, b]
            yield ["pinch", a, b, "--gamma3"]
            yield ["signature", a, b]
            yield ["alexander", a, b]
            yield ["dinv", a, b]
    for m in map(str, range(N + 1)):
        yield ["scan", "--max", m, "--csv"]
        yield ["table", "--family", "2k", "--kmax", m]
        yield ["table", "--family", "2k", "--kmax", m, "--csv"]
        yield ["table", "--family", "2k", "--kmax", m, "--json"]


def cli_digest(argv_lists):
    h = hashlib.sha256()
    for argv in argv_lists:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(("%s\0%d\0" % (" ".join(argv), code)).encode())
        h.update(out.getvalue().encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.fixture
def one_parser(monkeypatch):
    # Most of these lines are plain and need no parser, but the profile
    # lines with a negative p or `--from -8` are not: they reach argparse,
    # whose tree costs more to build than most of these calls.  Built once,
    # it serves them all, since parse_args keeps no state between calls.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)


def test_cli_output_is_byte_identical(one_parser):
    assert cli_digest(_argv_lists()) == GOLDEN_SHA256


M = 9
PROFILE_AUDIT_SHA256 = (
    "941cb30e639d06d08491aa9cd56d9e0cf7f1861d5b6819688206c55473d7d06c")


def _profile_audit_argv_lists():
    for p in range(M + 1):
        for q in range(M + 1):
            for lo, hi in ((-8, 8), (3, 3), (2, 1)):
                window = ["--from", str(lo), "--to", str(hi)]
                for a in (str(p), str(-p)):
                    yield ["profile", a, str(q)] + window
                    yield ["profile", a, str(q)] + window + ["--csv"]
    for g in range(-1, M):
        for m in range(0, M):
            for d in (-1, 0, 1, 3):
                yield ["audit", "--g", str(g), "--m", str(m), "--d", str(d)]


def test_profile_and_audit_output_is_byte_identical(one_parser):
    assert cli_digest(_profile_audit_argv_lists()) == PROFILE_AUDIT_SHA256
