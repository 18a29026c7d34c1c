#!/usr/bin/env python3
"""End-to-end benchmark of the Fractal library: motifs4, fsm3 and queries_mt.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload motifs4 --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the C++ driver
(perfbench/driver.cc) under .bench_build/perfbench with the repository's
default build settings. Each run then

  1. computes the single-threaded reference result for the seed in its own
     process (baselines::Tuned*), outside every measured region;
  2. runs the driver, which sets the workload up several times and issues
     requests for --seconds, checking every result against the reference;
  3. prints one line per metric (value, unit, sample count), then as its last
     line a JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. Full results, with the host context, go to
.bench_out/result-<workload>-<seed>-trace<t>.json; traced runs also write the
benchmark's span log to .bench_out/spans-<workload>-<seed>.json. The metric
definitions and the layer -> end-to-end map are in perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("motifs4", "fsm3", "queries_mt")
MIN_TAIL_SAMPLES = 10  # a reported percentile keeps this many samples beyond


class BenchError(Exception):
    pass


# --- Statistics ---------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank p-th percentile; returns (value, samples beyond it)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --- Spans --------------------------------------------------------------------

def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time (s) of every span: its duration minus the union of its
    children's intervals clipped to it. Returns {name: [self_s, ...]}."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = union_length(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(span["id"], ())
            if c["end_ns"] > start and c["start_ns"] < end)
        out.setdefault(span["name"], []).append((end - start - covered) * 1e-9)
    return out


# --- Metrics ------------------------------------------------------------------

def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload, record):
    """Untraced run -> end-to-end metrics."""
    requests = [r for r in record["requests"] if not r["traced"]]
    walls = [r["wall_s"] for r in requests]
    setup = [s["total_s"] for s in record["setup"]]
    m = {
        "setup_s": metric(median(setup), "s", len(setup)),
        "wall_s": metric(median(walls), "s", len(walls)),
        "cpu_s": metric(median([r["cpu_s"] for r in requests]), "s",
                        len(requests)),
        "peak_rss_mb": metric(record["peak_rss_mb"], "MB", 1),
    }
    if workload == "queries_mt":
        # A request is one query; the batch wall above is the closed loop's.
        latencies = [q["latency_s"] for r in requests for q in r["queries"]]
    else:
        # A request is one kernel execution.
        latencies = walls
    # Only correct replies count as completed: a query turned away by
    # admission control returns at once and must not raise the throughput.
    completed = sum(r["attempted"] - r["failed"] for r in requests)
    p90, beyond = percentile(latencies, 90)
    if workload == "queries_mt" and beyond < MIN_TAIL_SAMPLES:
        raise BenchError("latency_p90_ms has %d samples beyond it, want >= %d"
                         % (beyond, MIN_TAIL_SAMPLES))
    m["queries_per_s"] = metric(ratio(completed, sum(walls)), "1/s",
                                completed)
    m["latency_p50_ms"] = metric(1e3 * median(latencies), "ms",
                                 len(latencies))
    m["latency_p90_ms"] = metric(1e3 * p90, "ms", len(latencies))
    m["latency_p90_ms"]["beyond"] = beyond
    return m


def per_layer(workload, record, spans):
    """Traced run -> per-layer metrics."""
    untraced = [r for r in record["requests"] if not r["traced"]]
    traced = [r for r in record["requests"] if r["traced"]]
    if not traced or not untraced:
        raise BenchError("a traced run needs untraced and traced requests")
    selfs = self_times(spans)
    twins = [t["wall_s"] for t in record["twins"]]
    first = traced[0]
    n = len(traced)

    def med(key):
        return median([r[key] for r in traced])

    def hist_mean(sum_key, count_key):
        return ratio(sum(r[sum_key] for r in traced),
                     sum(r[count_key] for r in traced))

    def span_median(name):
        values = selfs.get(name, [])
        return metric(median(values), "s", len(values))

    traced_wall = med("wall_s")
    m = {
        "graph.generate_s": span_median("graph.generate"),
        "graph.index_s": span_median("graph.index"),
        "runtime.cluster_start_s": span_median("runtime.cluster_start"),
        "core.steps": metric(first["steps"], "count", 1),
        "core.step_s": metric(med("step_wall_s"), "s", n),
    }
    if workload == "queries_mt":
        queries = [q for r in traced for q in r["queries"]]
        m["core.driver_s"] = metric(
            median([q["service_s"] - q["step_wall_s"] for q in queries]), "s",
            len(queries))
    else:
        m["core.driver_s"] = metric(
            median([r["wall_s"] - r["step_wall_s"] for r in traced]), "s", n)
    if workload == "motifs4":
        aggregate = traced_wall - median(twins)
        m["core.aggregate_s"] = metric(aggregate, "s", n)
        m["core.aggregate_share"] = metric(ratio(aggregate, traced_wall),
                                           "ratio", n)
    else:
        # FSM has no enumeration-only twin; queries_mt has no aggregation.
        m["core.aggregate_s"] = metric(0.0, "s", 0)
        m["core.aggregate_share"] = metric(0.0, "ratio", 0)
    probe = record.get("pattern")
    m["pattern.quick_ns"] = metric(probe["quick_ns"] if probe else 0.0, "ns",
                                   probe["sample"] if probe else 0)
    m["pattern.canonical_ns"] = metric(
        probe["canonical_ns"] if probe else 0.0, "ns",
        probe["sample"] if probe else 0)
    m["pattern.cache_hit_ratio"] = metric(
        probe["hit_ratio"] if probe else 0.0, "ratio",
        probe["sample"] if probe else 0)
    m["enumerate.twin_s"] = metric(median(twins), "s", len(twins))
    m["enumerate.work_units"] = metric(first["work_units"], "count", 1)
    m["enumerate.extension_tests"] = metric(first["extension_tests"], "count",
                                            1)
    m["enumerate.subgraphs"] = metric(first["subgraphs"], "count", 1)
    m["enumerate.units_per_busy_s"] = metric(
        median([ratio(r["work_units"], r["busy_s"]) for r in traced]), "1/s",
        n)
    m["enumerate.intersections"] = metric(first["intersections"], "count", 1)
    m["enumerate.galloped"] = metric(first["galloped"], "count", 1)
    m["enumerate.scratch_hit_ratio"] = metric(
        ratio(sum(r["scratch_hits"] for r in traced),
              sum(r["scratch_hits"] + r["scratch_misses"] for r in traced)),
        "ratio", n)
    m["runtime.busy_frac"] = metric(
        median([ratio(r["busy_s"], r["thread_wall_s"]) for r in traced]),
        "ratio", n)
    m["runtime.idle_s"] = metric(
        median([r["thread_wall_s"] - r["busy_s"] for r in traced]), "s", n)
    m["runtime.balance_eff"] = metric(
        median([ratio(r["ideal_units"], r["simulated_units"])
                for r in traced]), "ratio", n)
    for key in ("steals_internal", "steals_external", "steal_failures",
                "steal_timeouts"):
        m["runtime." + key] = metric(med(key), "count", n)
    m["runtime.bytes_shipped"] = metric(med("bytes_shipped"), "B", n)
    m["runtime.steal_rtt_us"] = metric(
        hist_mean("steal_rtt_us_sum", "steal_rtt_count"), "us",
        sum(r["steal_rtt_count"] for r in traced))
    m["codec.encode_ns"] = metric(
        hist_mean("encode_ns_sum", "encode_count"), "ns",
        sum(r["encode_count"] for r in traced))
    m["codec.decode_ns"] = metric(
        hist_mean("decode_ns_sum", "decode_count"), "ns",
        sum(r["decode_count"] for r in traced))
    if workload == "queries_mt":
        queries = [q for r in traced for q in r["queries"]]
        waits = [q["latency_s"] - q["service_s"] for q in queries]
        wait_p90, _ = percentile(waits, 90)
        m["runtime.queue_wait_ms.p50"] = metric(1e3 * median(waits), "ms",
                                                len(waits))
        m["runtime.queue_wait_ms.p90"] = metric(1e3 * wait_p90, "ms",
                                                len(waits))
        m["runtime.service_ms.p50"] = metric(
            1e3 * median([q["service_s"] for q in queries]), "ms",
            len(queries))
    else:
        # No scheduler on the kernel workloads: nothing waits in a queue.
        m["runtime.queue_wait_ms.p50"] = metric(0.0, "ms", 0)
        m["runtime.queue_wait_ms.p90"] = metric(0.0, "ms", 0)
        m["runtime.service_ms.p50"] = metric(1e3 * traced_wall, "ms", n)
    m["runtime.queries_rejected"] = metric(
        sum(r["rejected"] for r in traced), "count", n)
    m["obs.trace_overhead"] = metric(
        ratio(traced_wall, median([r["wall_s"] for r in untraced])), "ratio",
        n)
    m["util.hot_allocs"] = metric(sum(r["hot_allocs"] for r in traced),
                                  "count", n)
    return m


# --- Build and run ------------------------------------------------------------

def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no Fractal source tree at %s (need CMakeLists.txt "
                         "and src/)" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    run_checked(["cmake", "--build", BUILD_DIR, "--target",
                 "perfbench_driver", "-j", jobs], timeout=840)


def run_checked(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns its stdout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return proc.stdout


def compute_reference(workload, seed):
    path = os.path.join(OUT_DIR, "ref-%s-%d.txt" % (workload, seed))
    run_checked([DRIVER, "oracle", "--workload", workload, "--seed", str(seed),
                 "--out", path], timeout=150)
    return path


def measure(workload, seed, seconds, trace, reference):
    cmd = [DRIVER, "measure", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--oracle", reference]
    spans_path = os.path.join(OUT_DIR, "spans-%s-%d.json" % (workload, seed))
    if trace:
        cmd += ["--spans", spans_path]
    stdout = run_checked(cmd, timeout=int(seconds) + 150)
    record = json.loads(stdout.strip().splitlines()[-1])
    spans = []
    if trace:
        with open(spans_path) as f:
            spans = json.load(f)
    return record, spans


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cpu_ticks():
    """Host-wide CPU time counters (user .. steal) from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_fraction(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def host_context(record, steal):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "steal_frac": steal,
        "build": record["build"],
    }


def correctness(record):
    attempted = sum(r["attempted"] for r in record["requests"])
    failed = sum(r["failed"] for r in record["requests"])
    attempted += len(record["twins"])
    failed += sum(1 for t in record["twins"] if not t["ok"])
    return attempted, failed


def print_table(workload, seed, trace, metrics, attempted, failed, host):
    steal = host["steal_frac"]
    print("perfbench %s seed=%d trace=%d  host: nproc=%d, %s, steal %s, "
          "build %s (lockdep=%s, alloc_guard=%s)"
          % (workload, seed, trace, host["nproc"], host["cpu_model"],
             "n/a" if steal is None else "%.1f%%" % (100 * steal),
             host["build"]["type"], host["build"]["lockdep"],
             host["build"]["alloc_guard"]))
    for name, m in metrics.items():
        extra = (" (%d beyond)" % m["beyond"]) if "beyond" in m else ""
        print("  %-28s %16.6f %-6s n=%d%s"
              % (name, m["value"], m["unit"], m["samples"], extra))
    print("  %-28s %16.6f %-6s n=%d"
          % ("error_rate", ratio(failed, attempted), "ratio", attempted))


def run(workload, seed, seconds, trace):
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    reference = compute_reference(workload, seed)
    ticks = cpu_ticks()
    record, spans = measure(workload, seed, seconds, trace, reference)
    steal = steal_fraction(ticks, cpu_ticks())
    if trace:
        metrics = per_layer(workload, record, spans)
    else:
        metrics = end_to_end(workload, record)
    attempted, failed = correctness(record)
    host = host_context(record, steal)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host, "graph": record["graph"],
        "attempted": attempted, "failed": failed,
        "error_rate": ratio(failed, attempted), "metrics": metrics,
        "span_self_s": {k: median(v) for k, v in self_times(spans).items()},
    }
    path = os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print_table(workload, seed, trace, metrics, attempted, failed, host)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
