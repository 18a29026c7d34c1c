#!/usr/bin/env python3
"""Steadiness check: runs perfbench/run.py once per seed on each workload and
reports, per end-to-end metric, the median and the spread (distance between
the first and third quartile as a share of the median) over those runs.

    python3 perfbench/steady.py --seeds 1-10 --out .bench_out/steady-a.json
    python3 perfbench/steady.py --seeds 1-10 --out .bench_out/steady-b.json \
        --against .bench_out/steady-a.json

Every workload of BENCHMARK.json runs at its run_seconds. A metric is steady
when its spread stays below a third of its bound in BENCHMARK.json.
--against compares each median with an earlier set's: a metric that got
worse by more than its bound is flagged, and the exit status is 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(new, old, better):
    """Relative worsening of `new` against `old` (negative: improvement)."""
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"]}
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)["workloads"]
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": seconds, "against": args.against,
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: incorrect result" % (workload, seed))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)
        steals = []
        for seed in seeds:
            with open(os.path.join(ROOT, ".bench_out",
                                   "result-%s-%d-trace0.json"
                                   % (workload, seed))) as f:
                host = json.load(f)["host"]
            steals.append(host.pop("steal_frac"))
        rows = report["workloads"][workload] = {
            "host": host, "steal_frac": steals, "metrics": {}}
        for name, vals in values.items():
            m = declared[name]
            row = rows["metrics"][name] = {
                "median": statistics.median(vals), "spread": spread(vals),
                "bound": m["bound"], "values": vals}
            flags = []
            if row["spread"] > m["bound"] / 3:
                flags.append("spread above a third of the bound")
            old = previous.get(workload, {}).get("metrics", {}).get(name)
            if old is not None:
                row["worse_by"] = worse_by(row["median"], old["median"],
                                           m["better"])
                if row["worse_by"] > m["bound"]:
                    flags.append("median worse than --against by more than "
                                 "the bound")
                    ok = False
            print("  %-12s %-16s median %12.6g  spread %.4f  bound %.2f%s%s"
                  % (workload, name, row["median"], row["spread"], m["bound"],
                     "  vs --against %+.4f" % row["worse_by"]
                     if "worse_by" in row else "",
                     "".join("  <-- " + f for f in flags)), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
