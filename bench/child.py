"""One benchmark child: a fresh interpreter that runs one workload's CLI
invocations and prints one JSON result line.

    python3 bench/child.py <launch monotonic ns> <spec json>

The spec names the workload, its argv lists, whether to trace, and where to
write the spans.  With no argv lists the child only imports the CLI, which
gives the set-up time and the RSS baseline of an empty workload.

`crosscap4.cli` is imported before anything else so that set-up time, taken
from the parent's launch stamp on the shared monotonic clock, covers the
interpreter start and the imports a CLI user pays for, and nothing more.
"""

import sys
import time

import crosscap4.cli

SETUP_S = (time.monotonic_ns() - int(sys.argv[1])) / 1e9

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _invoke(argv):
    """Run the CLI once with stdout and stderr captured; returns
    (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = crosscap4.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed item, not a dead child
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def main():
    spec = json.loads(sys.argv[2])
    result = {"setup_s": SETUP_S, "module": crosscap4.cli.__file__}
    argvs = spec["argvs"]
    tr = None
    if spec["trace"]:
        tr = tracer.Tracer()
        tr.install()
    outputs, wall = [], 0.0
    try:
        for argv in argvs:
            code, out, err, elapsed = _invoke(argv)
            outputs.append((code, out, err))
            wall += elapsed
    finally:
        if tr is not None:
            tr.restore()
    # Peak RSS of the timed work, read before the checks allocate anything.
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result["rss_mb"] = rusage.ru_maxrss / 1024
    result["wall_s"] = wall
    # Only what the CLI itself loaded: the child never imports numpy.
    numpy = sys.modules.get("numpy")
    result["numpy"] = getattr(numpy, "__version__", None)
    if argvs:
        workload = spec["workload"]
        digest = hashlib.sha256()
        for _, out, _ in outputs:
            digest.update(out.encode())
            digest.update(b"\0")
        result["digest"] = digest.hexdigest()
        result["exit_codes"] = [code for code, _, _ in outputs]
        result["stderr"] = [err[-500:] for _, _, err in outputs if err]
        result["attempted"] = workloads.items_attempted(workload, argvs)
        result["failed"] = workloads.items_failed(workload, argvs, outputs)
    if tr is not None:
        result["layers"] = tr.layer_metrics()
        result["absent"] = tr.absent
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as f:
                json.dump(tr.span_records(), f)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
