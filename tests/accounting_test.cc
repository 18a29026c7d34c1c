// Work accounting across topologies (DESIGN.md §6): the DFS counts into
// thread-owned fields only — ThreadStats, the per-thread live unit slots,
// ExtensionContext's kernel/batch tallies and the ScratchArena's hit/miss
// tallies — and those reach the shared registry once per thread per step,
// before the barrier. These tests pin down both halves of that contract:
// after Execute returns every registry counter holds the complete count
// (equal to the runtime's own telemetry, and equal across 1x1, 1x4 and 2x2
// clusters), and the live views still advance in the middle of a step.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "apps/fsm.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "core/context.h"
#include "enumerate/extension.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"

namespace fractal {
namespace {

struct Topology {
  uint32_t workers;
  uint32_t threads;
};

constexpr Topology kTopologies[] = {{1, 1}, {1, 4}, {2, 2}};

std::string Name(const Topology& topology) {
  return std::to_string(topology.workers) + "x" +
         std::to_string(topology.threads);
}

std::unique_ptr<Cluster> MakeCluster(const Topology& topology) {
  ClusterOptions options;
  options.num_workers = topology.workers;
  options.threads_per_worker = topology.threads;
  options.external_work_stealing = topology.workers > 1;
  options.network.latency_micros = 1;
  return std::make_unique<Cluster>(options);
}

/// The registry counters the DFS feeds, plus the cluster's live slots.
struct Counts {
  uint64_t work_units = 0;
  uint64_t worker_units = 0;  // sum of Cluster::SampleWorkerUnits
  uint64_t intersections = 0;
  uint64_t galloped = 0;
  uint64_t scratch_acquires = 0;  // hits + misses
  uint64_t batch_count = 0;
  uint64_t batch_sum = 0;

  static Counts Take(const Cluster& cluster) {
    Counts c;
    c.work_units = obs::WorkUnitsCounter().Value();
    std::vector<uint64_t> per_worker;
    cluster.SampleWorkerUnits(&per_worker);
    c.worker_units =
        std::accumulate(per_worker.begin(), per_worker.end(), uint64_t{0});
    c.intersections = obs::IntersectionKernelsCounter().Value();
    c.galloped = obs::GallopedKernelsCounter().Value();
    c.scratch_acquires = obs::ScratchHitsCounter().Value() +
                         obs::ScratchMissesCounter().Value();
    c.batch_count = obs::ExtensionBatchHistogram().Count();
    c.batch_sum = obs::ExtensionBatchHistogram().Sum();
    return c;
  }

  Counts Minus(const Counts& before) const {
    Counts d;
    d.work_units = work_units - before.work_units;
    d.worker_units = worker_units - before.worker_units;
    d.intersections = intersections - before.intersections;
    d.galloped = galloped - before.galloped;
    d.scratch_acquires = scratch_acquires - before.scratch_acquires;
    d.batch_count = batch_count - before.batch_count;
    d.batch_sum = batch_sum - before.batch_sum;
    return d;
  }
};

/// One workload run on one topology: the registry deltas next to the
/// runtime's own telemetry of the same run.
struct Observation {
  Counts delta;
  uint64_t telemetry_units = 0;
  /// Sum over steps of the threads that drained a root partition: each
  /// adds one root refill to the batch histogram on top of the DFS refills.
  uint64_t root_refills = 0;
  std::string result;  // workload output, for the cross-topology check
};

void AddSteps(const std::vector<StepTelemetry>& steps, Observation* out) {
  for (const StepTelemetry& step : steps) {
    out->telemetry_units += step.TotalWorkUnits();
    out->root_refills += step.threads.size();
  }
}

enum class Workload { kMotifs, kFsm, kQuery };

Observation Run(Workload workload, const FractalGraph& graph,
                const Topology& topology) {
  std::unique_ptr<Cluster> cluster = MakeCluster(topology);
  ExecutionConfig config;
  config.cluster = cluster.get();
  Observation obs;
  const Counts before = Counts::Take(*cluster);
  switch (workload) {
    case Workload::kMotifs: {
      const MotifsResult result = CountMotifs(graph, 4, config);
      EXPECT_TRUE(result.execution.status.ok()) << result.execution.status;
      AddSteps(result.execution.telemetry.steps, &obs);
      obs.result = std::to_string(result.total) + "/" +
                   std::to_string(result.counts.size());
      break;
    }
    case Workload::kFsm: {
      const FsmResult result = RunFsm(graph, /*min_support=*/12,
                                      /*max_edges=*/3, config);
      EXPECT_TRUE(result.status.ok()) << result.status;
      AddSteps(result.step_telemetry, &obs);
      obs.result = std::to_string(result.frequent.size());
      break;
    }
    case Workload::kQuery: {
      const ExecutionResult result =
          QueryFractoid(graph, SeedQuery(3)).Execute(config);
      EXPECT_TRUE(result.status.ok()) << result.status;
      AddSteps(result.telemetry.steps, &obs);
      obs.result = std::to_string(result.num_subgraphs);
      break;
    }
  }
  obs.delta = Counts::Take(*cluster).Minus(before);
  return obs;
}

/// Kernel tally of a plain serial DFS with the same strategy and depth as
/// CountMotifs(k): the ground truth the runtime's flushed per-thread
/// tallies must add up to. Read straight from the context, then cleared so
/// its destruction adds nothing to the registry.
adjacency::KernelCounts SerialMotifKernelCounts(const Graph& graph,
                                                uint32_t k) {
  VertexInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  std::vector<std::vector<uint32_t>> levels(k);
  const auto walk = [&](const auto& self) -> void {
    std::vector<uint32_t>& extensions = levels[subgraph.NumVertices()];
    strategy.ComputeExtensions(graph, subgraph, ctx, &extensions);
    if (subgraph.NumVertices() + 1 == k) return;
    for (const uint32_t extension : extensions) {
      strategy.Apply(graph, extension, &subgraph);
      self(self);
      strategy.Undo(graph, &subgraph);
    }
  };
  walk(walk);
  const adjacency::KernelCounts counts = ctx.kernels;
  ctx.kernels = {};
  return counts;
}

void ExpectPreservedAcrossTopologies(Workload workload,
                                     const FractalGraph& graph) {
  // Outside every measured window: the serial walk's scratch tallies reach
  // the registry when its context is destroyed.
  const adjacency::KernelCounts serial =
      workload == Workload::kMotifs
          ? SerialMotifKernelCounts(graph.graph(), 4)
          : adjacency::KernelCounts{};
  std::vector<Observation> runs;
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE("topology " + Name(topology));
    Observation obs = Run(workload, graph, topology);
    // Barrier-credited counter and live slots both account every unit the
    // telemetry saw, no more and no less.
    EXPECT_GT(obs.telemetry_units, 0u);
    EXPECT_EQ(obs.delta.work_units, obs.telemetry_units);
    EXPECT_EQ(obs.delta.worker_units, obs.telemetry_units);
    // Every extension handed to an enumerator is consumed exactly once.
    EXPECT_EQ(obs.delta.batch_sum, obs.telemetry_units);
    // Every kernel call reaches the registry exactly once. (Only
    // vertex-induced extension runs the set-algebra kernels.)
    if (workload == Workload::kMotifs) {
      EXPECT_GT(serial.calls, 0u);
      EXPECT_EQ(obs.delta.intersections, serial.calls);
      EXPECT_EQ(obs.delta.galloped, serial.galloped);
    }
    runs.push_back(std::move(obs));
  }
  // Per-node tallies are a property of the enumeration, not of which
  // thread ran each node: flushed per thread, they must sum to the same
  // totals on every topology. (Scratch misses alone depend on how many
  // arenas warm up, so acquisitions are compared.)
  for (size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("topology " + Name(kTopologies[i]) + " vs " +
                 Name(kTopologies[0]));
    EXPECT_EQ(runs[i].result, runs[0].result);
    EXPECT_EQ(runs[i].telemetry_units, runs[0].telemetry_units);
    EXPECT_EQ(runs[i].delta.intersections, runs[0].delta.intersections);
    EXPECT_EQ(runs[i].delta.galloped, runs[0].delta.galloped);
    EXPECT_EQ(runs[i].delta.scratch_acquires,
              runs[0].delta.scratch_acquires);
    EXPECT_EQ(runs[i].delta.batch_sum, runs[0].delta.batch_sum);
    EXPECT_EQ(runs[i].delta.batch_count - runs[i].root_refills,
              runs[0].delta.batch_count - runs[0].root_refills);
  }
}

FractalGraph UnlabeledGraph(FractalContext& fctx) {
  return fctx.FromGraph(GenerateRandomGraph(120, 480, 1, 1, 17));
}

TEST(WorkAccountingTest, MotifsCountersMatchTelemetryOnEveryTopology) {
  FractalContext fctx;
  const FractalGraph graph = UnlabeledGraph(fctx);
  ExpectPreservedAcrossTopologies(Workload::kMotifs, graph);
}

TEST(WorkAccountingTest, FsmCountersMatchTelemetryOnEveryTopology) {
  FractalContext fctx;
  const FractalGraph graph =
      fctx.FromGraph(GenerateRandomGraph(120, 360, 3, 1, 23));
  ExpectPreservedAcrossTopologies(Workload::kFsm, graph);
}

TEST(WorkAccountingTest, QueryCountersMatchTelemetryOnEveryTopology) {
  FractalContext fctx;
  const FractalGraph graph = UnlabeledGraph(fctx);
  ExpectPreservedAcrossTopologies(Workload::kQuery, graph);
}

/// Worker 0's "units=" on a /statusz page (0 when the row is missing).
uint64_t StatuszWorkerUnits(const std::string& page) {
  const size_t row = page.find("\nworker 0 ");
  if (row == std::string::npos) return 0;
  const size_t units = page.find("units=", row);
  if (units == std::string::npos) return 0;
  return std::strtoull(page.c_str() + units + 6, nullptr, 10);
}

// A straggler plan stretches one step over many sampling intervals. Mid-step
// the per-worker views (sampler deltas, the runtime.worker_units.<w> gauge,
// /statusz rows) must grow, while "runtime.work_units" waits for the
// barrier.
TEST(WorkAccountingTest, LiveViewsAdvanceMidStep) {
  FractalContext fctx;
  const FractalGraph graph = UnlabeledGraph(fctx);
  ClusterOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 2;
  Cluster cluster(options);
  ExecutionConfig config;
  config.cluster = &cluster;
  config.fault_plan = FaultPlan().SlowWorker(0, 200);

  const uint64_t credited_before = obs::WorkUnitsCounter().Value();
  obs::ProgressSampler sampler(
      [&cluster](std::vector<uint64_t>* out) {
        cluster.SampleWorkerUnits(out);
      });
  ExecutionResult result;
  std::thread runner([&] {
    result = graph.VFractoid().Expand(3).Execute(config);
  });
  while (obs::StepActiveGauge().Value() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Samples taken while the step is provably still in flight (the gauge
  // reads 1 after each sample, and the step runs for a second or more).
  int mid_step_samples = 0;
  int growing_samples = 0;
  uint64_t last_statusz_units = 0;
  int statusz_growth = 0;
  uint64_t credited_mid_step = 0;
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    const obs::ProgressSnapshot snapshot = sampler.Sample();
    const int64_t gauge = obs::WorkerUnitsGauge(0).Value();
    const uint64_t statusz_units = StatuszWorkerUnits(cluster.RenderStatusz());
    const uint64_t credited = obs::WorkUnitsCounter().Value();
    if (obs::StepActiveGauge().Value() == 0) break;
    ++mid_step_samples;
    credited_mid_step = credited;
    ASSERT_EQ(snapshot.worker_units_delta.size(), 1u);
    if (snapshot.worker_units_delta[0] > 0 && snapshot.work_units_delta > 0 &&
        gauge > 0) {
      ++growing_samples;
    }
    if (statusz_units > last_statusz_units) ++statusz_growth;
    last_statusz_units = statusz_units;
  }
  runner.join();
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_GE(mid_step_samples, 3);
  EXPECT_GE(growing_samples, mid_step_samples - 1);
  EXPECT_GE(statusz_growth, mid_step_samples - 1);
  // Credited at the barrier, never in the hot loop.
  EXPECT_EQ(credited_mid_step, credited_before);
  EXPECT_EQ(obs::WorkUnitsCounter().Value() - credited_before,
            result.telemetry.TotalWorkUnits());
}

}  // namespace
}  // namespace fractal
