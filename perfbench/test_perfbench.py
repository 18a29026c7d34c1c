#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The statistics and span tests are pure Python. The driver tests build the
driver (as run.py does) and run short fsm3 measurements: the same seed must
give the same graph and the same deterministic work counts, and a
deliberately wrong reference must show up as failed requests, so the result
check cannot pass vacuously.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_keeps_ten_samples_beyond(self):
        # One query batch is the smallest queries_mt sample.
        for n in (100, 120, 240, 1000):
            _, beyond = run.percentile(list(range(n)), 90)
            self.assertGreaterEqual(beyond, run.MIN_TAIL_SAMPLES, n)

    def test_nearest_rank(self):
        values = list(range(1, 121))  # 1..120
        self.assertEqual(run.percentile(values, 90), (108, 12))
        self.assertEqual(run.percentile(values, 50), (60, 60))
        self.assertEqual(run.percentile([5.0], 90), (5.0, 0))

    def test_queries_tail_needs_ten_beyond(self):
        record = {
            "setup": [{"total_s": 0.01}],
            "peak_rss_mb": 10.0,
            "requests": [{
                "traced": False, "wall_s": 1.0, "cpu_s": 4.0,
                "attempted": 50, "failed": 0,
                "queries": [{"latency_s": 0.01 * i} for i in range(50)],
            }],
        }
        with self.assertRaises(run.BenchError):
            run.end_to_end("queries_mt", record)
        record["requests"][0]["queries"] = [
            {"latency_s": 0.01 * i} for i in range(120)]
        record["requests"][0]["attempted"] = 120
        metrics = run.end_to_end("queries_mt", record)
        self.assertGreaterEqual(metrics["latency_p90_ms"]["beyond"], 10)
        self.assertAlmostEqual(metrics["queries_per_s"]["value"], 120.0)
        # A query turned away by admission control is not throughput.
        record["requests"][0]["failed"] = 20
        metrics = run.end_to_end("queries_mt", record)
        self.assertAlmostEqual(metrics["queries_per_s"]["value"], 100.0)


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(span_id, parent, start, end, name):
        return {"id": span_id, "parent": parent, "run": 1, "name": name,
                "start_ns": int(start * 1e9), "end_ns": int(end * 1e9)}

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            self.span(1, 0, 0.0, 10.0, "request"),
            # Overlapping children (concurrent queries) cover [1, 6).
            self.span(2, 1, 1.0, 4.0, "core.query"),
            self.span(3, 1, 2.0, 6.0, "core.query"),
            # A child sticking out of its parent is clipped.
            self.span(4, 1, 9.0, 12.0, "check"),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["request"][0], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(sorted(selfs["core.query"])[0], 3.0)
        self.assertAlmostEqual(selfs["check"][0], 3.0)


class DriverTest(unittest.TestCase):
    """Two fsm3 measurements of one seed: right and wrong reference."""

    SEED = 7

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        run.build()
        cls.reference = run.compute_reference("fsm3", cls.SEED)
        cls.good, _ = run.measure("fsm3", cls.SEED, 0.5, 0, cls.reference)
        with open(cls.reference) as f:
            lines = f.read().splitlines()
        count, key = lines[0].split("\t", 1)
        lines[0] = "%d\t%s" % (int(count) + 1, key)
        cls.wrong_reference = cls.reference + ".wrong"
        with open(cls.wrong_reference, "w") as f:
            f.write("\n".join(lines) + "\n")
        cls.bad, _ = run.measure("fsm3", cls.SEED, 0.5, 0,
                                 cls.wrong_reference)

    def test_right_reference_passes(self):
        attempted, failed = run.correctness(self.good)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)

    def test_wrong_reference_raises_error_rate(self):
        attempted, failed = run.correctness(self.bad)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, attempted)

    def test_same_seed_same_work(self):
        self.assertEqual(self.good["graph"], self.bad["graph"])
        keys = ("work_units", "extension_tests", "steps")
        runs = self.good["requests"] + self.bad["requests"]
        for key in keys:
            self.assertEqual(len({r[key] for r in runs}), 1, key)

    def test_other_seed_other_input(self):
        # Seeds relabel one base graph: another seed permutes the labels, so
        # the frequent patterns' keys differ, on a graph of the same size.
        reference = run.compute_reference("fsm3", self.SEED + 1)
        with open(reference) as f, open(self.reference) as g:
            self.assertNotEqual(f.read(), g.read())
        other, _ = run.measure("fsm3", self.SEED + 1, 0.5, 0, reference)
        self.assertEqual(other["graph"], self.good["graph"])
        self.assertEqual(run.correctness(other)[1], 0)

    def test_driver_fails_without_reference(self):
        proc = subprocess.run(
            [run.DRIVER, "measure", "--workload", "fsm3", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--oracle",
             os.path.join(run.OUT_DIR, "missing.txt")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_end_to_end_metrics_match_benchmark_json(self):
        metrics = run.end_to_end("fsm3", self.good)
        self.assertEqual({k: m["unit"] for k, m in metrics.items()},
                         declared("end_to_end"))
        for m in metrics.values():
            self.assertGreater(m["value"], 0)


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class TracedTest(unittest.TestCase):
    """A short traced fsm3 run: every per-layer metric, from spans that
    nest the layer calls under their set-up or request."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        run.build()
        reference = run.compute_reference("fsm3", 3)
        cls.record, cls.spans = run.measure("fsm3", 3, 0.5, 1, reference)

    def test_per_layer_metrics_match_benchmark_json(self):
        metrics = run.per_layer("fsm3", self.record, self.spans)
        self.assertEqual({k: m["unit"] for k, m in metrics.items()},
                         declared("per_layer"))
        self.assertGreater(metrics["obs.trace_overhead"]["value"], 0)
        self.assertGreater(metrics["runtime.steals_external"]["value"], 0)
        self.assertEqual(run.correctness(self.record)[1], 0)

    def test_spans_nest_layers_under_their_run(self):
        by_id = {s["id"]: s for s in self.spans}
        parents = {}
        for s in self.spans:
            if s["parent"]:
                parent = by_id[s["parent"]]
                self.assertEqual(parent["run"], s["run"])
                self.assertLessEqual(parent["start_ns"], s["start_ns"])
                self.assertLessEqual(s["end_ns"], parent["end_ns"])
                parents[s["name"]] = parent["name"]
        self.assertEqual(parents["graph.generate"], "setup")
        self.assertEqual(parents["graph.index"], "setup")
        self.assertEqual(parents["runtime.cluster_start"], "setup")
        self.assertEqual(parents["core.execute"], "request")
        self.assertEqual(parents["enumerate.stream"], "pattern.probe")


if __name__ == "__main__":
    unittest.main()
