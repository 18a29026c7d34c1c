#!/usr/bin/env python3
"""CI perf gate: diff two google-benchmark JSON files and fail on regression.

Compares per-benchmark real_time of `current` against `baseline`, series
matched by name. Google-benchmark writes a per-repetition entry for every
iteration run, so each of its series is its fastest repetition: load from
other processes on the host only adds time, so the minimum holds still
where single shots and means move by tens of percent. Any other file (the
hand-written JSON of bench_resilience) is compared by its raw entries.
Exits nonzero when any shared series regressed by more than --threshold
(default 0.20 = 20% slower). Baselines are host-bound: when the two files
disagree on host_name, per-core clock, CPU count or cache sizes, the diff
is printed but regressions only warn (a committed baseline from another
machine must not fail CI) unless --strict forces the gate. Another VM of
the same type reports the same context and is gated like the host that
wrote the baseline.

Usage: bench_compare.py <baseline.json> <current.json>
           [--threshold 0.20] [--strict]
"""
import argparse
import json
import sys


def load_series(path):
    with open(path) as f:
        data = json.load(f)
    entries = data.get("benchmarks", [])
    # Google-benchmark iteration entries carry a repetition_index, keyed by
    # run_name; keep the fastest repetition of each series.
    fastest = {}
    for e in entries:
        if e.get("run_type") == "iteration" and "repetition_index" in e:
            name = e.get("run_name", e["name"])
            best = fastest.get(name)
            if best is None or e["real_time"] < best["real_time"]:
                fastest[name] = e
    if fastest:
        return data.get("context", {}), fastest
    return data.get("context", {}), {e["name"]: e for e in entries}


def comparable_context(a, b):
    keys = ("host_name", "mhz_per_cpu", "num_cpus", "caches")
    return all(a.get(k) == b.get(k) for k in keys)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max allowed relative real_time increase")
    parser.add_argument("--strict", action="store_true",
                        help="fail on regression even across hosts")
    args = parser.parse_args()

    base_ctx, base = load_series(args.baseline)
    cur_ctx, cur = load_series(args.current)
    shared = sorted(base.keys() & cur.keys())
    if not shared:
        print("bench_compare: no shared benchmark names "
              f"({len(base)} baseline, {len(cur)} current)", file=sys.stderr)
        return 2

    same_host = comparable_context(base_ctx, cur_ctx)
    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in shared:
        b, c = base[name], cur[name]
        unit = c.get("time_unit", "ns")
        bt, ct = float(b["real_time"]), float(c["real_time"])
        delta = (ct - bt) / bt if bt > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            regressions.append((name, delta))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {bt:>10.1f}{unit}  {ct:>10.1f}{unit}  "
              f"{delta:+7.1%}{flag}")
    only = (base.keys() | cur.keys()) - set(shared)
    if only:
        print(f"(not compared: {sorted(only)})")

    if regressions:
        worst = max(d for _, d in regressions)
        msg = (f"{len(regressions)} series regressed beyond "
               f"{args.threshold:.0%} (worst {worst:+.1%})")
        if same_host or args.strict:
            print(f"bench_compare FAIL: {msg}", file=sys.stderr)
            return 1
        print(f"bench_compare WARN (different host, not gating): {msg}")
        return 0
    print(f"bench_compare OK: {len(shared)} series within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
