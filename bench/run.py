"""crosscap4 benchmark runner.

    python3 bench/run.py --workload census|family|engines --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` beside this directory.
Every run of a workload is a fresh child interpreter (bench/child.py), one
child at a time, so each pays what a CLI user pays: interpreter start, the
numpy import and cold lru_caches.  The runner first starts one discarded
warm-up child, then, until S seconds have passed, alternates an import-only
child (set-up time and the RSS baseline of an empty workload) with a
workload child, so that set-up and workload timings sample the same stretch
of host speed.  Each metric is the median over children.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced children and reports the per-layer metrics of the traced ones, plus
trace.overhead_ratio = traced cli.main.s / untraced wall_s.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The full record (argv lists, every child's result) goes to
.bench_out/.  Exits 1 without a result when the program cannot be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
MIN_CHILDREN = 3
# Every run must end within 180 s; no child may outlive this budget.
HARD_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def _load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def _run_child(workload, argvs, trace, deadline, spans_out=None):
    spec = json.dumps({"workload": workload, "argvs": argvs, "trace": trace,
                       "spans_out": spans_out})
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    launch = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), str(launch),
             spec], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("child timed out after %.0f s" % timeout)
    if proc.returncode != 0:
        raise ChildFailed("child exited %d: %s"
                          % (proc.returncode, proc.stderr.strip()[-2000:]))
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed("child printed no result: %r" % proc.stdout[-500:])
    module = os.path.realpath(result["module"])
    if not module.startswith(os.path.realpath(SRC) + os.sep):
        raise ChildFailed("child imported crosscap4 from %s" % module)
    return result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summarise(samples, units):
    """{name: [values]} -> ({name: median}, printable lines)."""
    medians, lines = {}, []
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        medians[name] = med
        lines.append("%-34s %14.6g %-5s  q1 %.6g  q3 %.6g  n=%d"
                     % (name, med, units[name], q1, q3, len(values)))
    return medians, lines


def run(bench, workload, seed, seconds, trace):
    argvs = workloads.argv_lists(workload, seed)
    digests = _load_json(BENCH_DIR, "baseline.json")["digests"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    expected = digests.get(workload) if \
        workload != "engines" or seed == DEFAULT_SEED else None
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    spans_out = os.path.join(OUT_DIR, "spans-%s-seed%d.json"
                             % (workload, seed))

    # Raises ChildFailed when the program cannot even be imported.
    _run_child(workload, [], False, deadline)

    setup, plain, traced, errors, laps = [], [], [], [], []
    per_child = workloads.items_attempted(workload, argvs)
    attempted = failed = 0
    # An iteration is started only if, at the median iteration time so far,
    # it would finish inside --seconds, so a run lasts about --seconds.
    while time.monotonic() < deadline and (
            len(plain) < MIN_CHILDREN or
            time.monotonic() - start + statistics.median(laps) <= seconds):
        lap = time.monotonic()
        setup.append(_run_child(workload, [], False, deadline))
        modes = (False, True) if trace else (False,)
        for mode in modes:
            attempted += per_child
            try:
                res = _run_child(workload, argvs, mode, deadline,
                                 spans_out if mode else None)
            except ChildFailed as exc:
                errors.append(str(exc))
                failed += per_child
                continue
            (traced if mode else plain).append(res)
            if expected is not None and res["digest"] != expected:
                errors.append("stdout digest %s != recorded %s"
                              % (res["digest"], expected))
                failed += per_child
            else:
                failed += res["failed"]
        laps.append(time.monotonic() - lap)
        if errors:
            break

    done = plain + traced
    if len({r["digest"] for r in done}) > 1:
        errors.append("stdout differs between children: %s"
                      % sorted({r["digest"] for r in done}))
    if trace:
        samples = {k: [r["layers"][k] for r in traced]
                   for k in (traced[0]["layers"] if traced else {})}
        if traced and plain:
            samples["trace.overhead_ratio"] = [
                statistics.median(samples["cli.main.s"]) /
                statistics.median(r["wall_s"] for r in plain)]
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in setup + done],
            "setup_rss_mb": [r["rss_mb"] for r in setup],
            "wall_s": [r["wall_s"] for r in plain],
            "items_per_s": [r["attempted"] / r["wall_s"] for r in plain],
            "peak_rss_mb": [r["rss_mb"] for r in plain],
        }
    samples = {k: v for k, v in samples.items() if v}
    medians, lines = _summarise(samples, units)

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "argv_lists": argvs, "expected_digest": expected,
              "nproc": len(os.sched_getaffinity(0)),
              "python": sys.version.split()[0],
              "numpy": setup[0]["numpy"], "errors": errors,
              "absent": traced[0]["absent"] if traced else [],
              "setup_children": setup, "children": done, "metrics": medians}
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)

    print("workload %s  seed %d  trace %d  children %d  argv lists %s"
          % (workload, seed, trace, len(done), json.dumps(argvs)))
    for line in lines:
        print(line)
    print("fail_rate %.6g (%d of %d items)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    if record["absent"]:
        print("absent functions (metrics read 0): %s"
              % ", ".join(record["absent"]))
    for e in errors:
        print("error: %s" % e, file=sys.stderr)
    correct = not errors and failed == 0 and bool(plain) and \
        (bool(traced) or not trace)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in medians.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crosscap4", "cli.py")):
        print("error: no program at %s" % SRC, file=sys.stderr)
        return 1
    bench = _load_json(ROOT, "BENCHMARK.json")
    seconds = args.seconds or bench["run_seconds"]
    try:
        run(bench, args.workload, args.seed, seconds, bool(args.trace))
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
