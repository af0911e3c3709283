#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload on one commit.

    python3 tirbench/steady.py [--runs 10] [--workload NAME ...] [--out FILE]

Each set runs every workload --runs times through run.py, each run with its
own seed (set A seeds 1..N, set B seeds 101..100+N), for BENCHMARK.json's
run_seconds.  For every end-to-end metric it prints, per set, the median,
the quartiles (statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median,
then whether the two sets agree: every spread, setup_s's too, within the
metric's bound, the two medians apart by no more than the bound (either
way), and the same share of failed operations.  The host reference
loop rate of each run is shown beside it, to spot slow-host spells.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    host = re.search(r"host reference loop: ([\d.]+) Msteps/s before, ([\d.]+)", proc.stdout)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["host"] = (float(host.group(1)), float(host.group(2))) if host else (0.0, 0.0)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()
    workloads = args.workload or names
    metrics = bench["end_to_end"]

    results = {}
    for set_name, base in (("A", 0), ("B", 100)):
        for w in workloads:
            for i in range(1, args.runs + 1):
                r = run_once(w, base + i, bench["run_seconds"])
                results.setdefault(w, {}).setdefault(set_name, []).append(r)
                print("%s set %s seed %3d: %s  host %.0f/%.0f Msteps/s" % (
                    w, set_name, base + i,
                    " ".join("%s=%.6g" % (m["name"], r["metrics"][m["name"]]["value"])
                             for m in metrics), r["host"][0], r["host"][1]), flush=True)

    agree = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-20s %5s %12s %12s %12s %8s %7s  %s" % (
            "metric", "set", "median", "Q1", "Q3", "spread", "bound", "verdict"))
        share = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for s, rs in results[w].items()}
        for m in metrics:
            stats = {}
            for s, rs in results[w].items():
                stats[s] = summary([r["metrics"][m["name"]]["value"] for r in rs])
            worse = stats["B"][0] / stats["A"][0] - 1
            if m["better"] == "higher":
                worse = -worse
            ok = abs(worse) <= m["bound"] and all(st[3] <= m["bound"] for st in stats.values())
            agree = agree and ok
            for s in ("A", "B"):
                med, q1, q3, spread = stats[s]
                verdict = ""
                if s == "B":
                    verdict = "%s (B vs A %+.1f%% worse)" % ("ok" if ok else "NOT STEADY", 100 * worse)
                print("  %-20s %5s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%  %s" % (
                    m["name"], s, med, q1, q3, 100 * spread, 100 * m["bound"], verdict))
        same = share["A"] == share["B"]
        agree = agree and same
        print("  failed share: A %.6f, B %.6f (%s)" % (share["A"], share["B"],
                                                       "same" if same else "DIFFERENT"))
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)
    print("\n%s" % ("the two sets agree within the bounds" if agree else "the two sets DISAGREE"))
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
