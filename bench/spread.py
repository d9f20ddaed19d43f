"""Run bench/run.py on several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads census family engines] [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1] [--against FILE]

For every workload and metric it prints the median over runs, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and for
end-to-end metrics the bound from BENCHMARK.json.  A spread at most a third
of the bound is reported as steady.  With --against, the medians are also
compared with an earlier summary: a median worse than the earlier one by
more than the bound is reported as drift.  The summary is written to
.bench_out/spread-trace<T>.json.  With --runs 1 this is the one command that
prints every metric of every workload.
"""

import argparse
import json
import os
import subprocess
import sys

import run

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("run.py failed on %s seed %d:\n%s"
                 % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against")
    args = ap.parse_args()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    summary, ok = {}, True
    for w in args.workloads:
        values, correct, failed, attempted = {}, True, 0, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = _run(w, seed, args.seconds, args.trace)
            correct &= res["correct"] and res["failed"] == 0
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items()
                if k in spec and "bound" in spec[k])), flush=True)
        ok &= correct
        print("== %s  runs %d  correct %s  fail_rate %.6g (%d of %d items)"
              % (w, args.runs, correct, failed / attempted, failed, attempted))
        summary[w] = {}
        for name, vals in values.items():
            q1, med, q3 = run.quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "values": vals}
            m = spec.get(name, {})
            note = ""
            if "bound" in m:
                steady = spread <= m["bound"] / 3
                note = "bound %.3g %s" % (m["bound"], "steady" if steady
                                          else "NOT STEADY")
                ok &= steady
                prev = earlier.get(w, {}).get(name)
                if prev:
                    worse = (med - prev["median"]) / prev["median"]
                    if m["better"] == "higher":
                        worse = -worse
                    note += "  vs earlier %+.3f%s" % (
                        worse, " DRIFT" if worse > m["bound"] else "")
                    ok &= worse <= m["bound"]
            print("  %-34s %12.6g %-5s  q1 %-10.6g q3 %-10.6g spread %.4f  %s"
                  % (name, med, m.get("unit", ""), q1, q3, spread, note))
    out = os.path.join(ROOT, ".bench_out", "spread-trace%d.json" % args.trace)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("summary written to %s; %s" % (out, "ok" if ok else "NOT OK"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
