// Multi-tenant query scheduler tests (DESIGN.md §12): concurrent fractoid
// executions on one shared Cluster with weighted-fair step admission,
// cooperative cancellation, deadlines and admission control.
//
// Suites:
//   SchedulerTest         — runtime-level ScheduledQuery/QueryScheduler
//   AsyncExecutorTest     — core-level ExecuteFractoidAsync / QueryHandle
//   ExecutorContractTest  — same-fractoid-concurrently guard
//   SchedulerChaosTest    — fault injection × concurrent queries (the ci.sh
//                           scheduler stage runs this filter separately)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/executor.h"
#include "core/fractoid.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"
#include "runtime/query_scheduler.h"
#include "util/status.h"

namespace fractal {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;
using std::chrono::steady_clock;

ClusterOptions SharedClusterOptions(uint32_t workers = 1,
                                    uint32_t threads = 4) {
  ClusterOptions options;
  options.num_workers = workers;
  options.threads_per_worker = threads;
  options.external_work_stealing = workers > 1;
  options.network.latency_micros = workers > 1 ? 1 : 0;
  return options;
}

/// A local filter that passes everything but sleeps per subgraph — makes a
/// query's steps take long enough to observe interleaving / cancel mid-step.
LocalFilterFn SleepyFilter(int micros) {
  return [micros](const Subgraph&, Computation&) {
    if (micros > 0) std::this_thread::sleep_for(microseconds(micros));
    return true;
  };
}

/// Builds a fresh `1 + rounds`-step workflow over `graph`: every round adds
/// an aggregation sync point (step boundary), an always-true aggregation
/// filter and one more expansion. Fresh per call — no cached steps, so two
/// builds with the same arguments enumerate identically.
Fractoid MultiStepFractoid(const FractalGraph& graph, uint32_t rounds,
                           int sleep_micros) {
  Fractoid f = graph.VFractoid().Expand(1).Filter(SleepyFilter(sleep_micros));
  for (uint32_t r = 0; r < rounds; ++r) {
    const std::string name = "count" + std::to_string(r);
    f = f.Aggregate<uint64_t, uint64_t>(
             name, [](const Subgraph&, Computation&) -> uint64_t { return 0; },
             [](const Subgraph&, Computation&) -> uint64_t { return 1; },
             [](uint64_t& a, uint64_t&& b) { a += b; })
            .FilterByAggregation<uint64_t, uint64_t>(
                name, [](const Subgraph&, Computation&,
                         const AggregationStorage<uint64_t, uint64_t>&) {
                  return true;
                })
            .Expand(1)
            .Filter(SleepyFilter(sleep_micros));
  }
  return f;
}

// --- Runtime-level scheduler behavior ------------------------------------

TEST(SchedulerTest, AdmissionOverflowReturnsResourceExhausted) {
  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 1;
  options.max_queued = 2;
  QueryScheduler scheduler(&cluster, options);
  const uint64_t rejected_before = obs::QueriesRejectedCounter().Value();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  const auto body = [gate](QueryControl&) {
    gate.wait();
    return Status::Ok();
  };

  // One running (occupies the only driver) + two queued fills the scheduler.
  auto running = scheduler.Submit({.name = "blocker"}, body);
  ASSERT_TRUE(running.ok()) << running.status();
  // Wait until the driver picked it up, so the queue really has room for 2.
  while ((*running)->state() != ScheduledQuery::State::kRunning) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  auto queued1 = scheduler.Submit({.name = "waiter-1"}, body);
  auto queued2 = scheduler.Submit({.name = "waiter-2"}, body);
  ASSERT_TRUE(queued1.ok() && queued2.ok());

  // Backpressure: the fourth submission bounces.
  auto overflow = scheduler.Submit({.name = "overflow"}, body);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_EQ(obs::QueriesRejectedCounter().Value(), rejected_before + 1);

  release.set_value();
  EXPECT_TRUE((*running)->Join().ok());
  EXPECT_TRUE((*queued1)->Join().ok());
  EXPECT_TRUE((*queued2)->Join().ok());
  EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(SchedulerTest, CancelWhileQueuedResolvesWithoutRunning) {
  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 1;
  QueryScheduler scheduler(&cluster, options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> bodies_run{0};
  auto blocker = scheduler.Submit({.name = "blocker"}, [&](QueryControl&) {
    bodies_run.fetch_add(1);
    gate.wait();
    return Status::Ok();
  });
  ASSERT_TRUE(blocker.ok());
  auto victim = scheduler.Submit({.name = "victim"}, [&](QueryControl&) {
    bodies_run.fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(victim.ok());

  (*victim)->Cancel();
  release.set_value();

  const Status status = (*victim)->Join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_TRUE((*blocker)->Join().ok());
  // The cancelled query's body never ran: only the blocker's did.
  EXPECT_EQ(bodies_run.load(), 1);
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(SchedulerTest, DeadlineWhileQueuedResolvesDeadlineExceeded) {
  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 1;
  QueryScheduler scheduler(&cluster, options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto blocker = scheduler.Submit(
      {.name = "blocker"},
      [gate](QueryControl&) {
        gate.wait();
        return Status::Ok();
      });
  ASSERT_TRUE(blocker.ok());
  while ((*blocker)->state() != ScheduledQuery::State::kRunning) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  auto doomed = scheduler.Submit({.name = "doomed", .deadline_ms = 20},
                                 [](QueryControl&) { return Status::Ok(); });
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(milliseconds(60));  // let the deadline lapse
  release.set_value();

  EXPECT_EQ((*doomed)->Join().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE((*blocker)->Join().ok());
  EXPECT_EQ((*doomed)->control().steps_run.load(), 0u);
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1u);
}

TEST(SchedulerTest, ShutdownResolvesOutstandingQueries) {
  Cluster cluster(SharedClusterOptions());
  std::shared_ptr<ScheduledQuery> queued;
  std::atomic<bool> queued_body_ran{false};
  {
    QuerySchedulerOptions options;
    options.max_active = 1;
    QueryScheduler scheduler(&cluster, options);
    // The blocker unblocks only when CancelAll flips its flag, so the sole
    // driver is guaranteed to still be busy when the destructor latches the
    // queued query's cancel (queue_ is cancelled before active_, and the
    // release/acquire pair on cancel_requested orders the two stores).
    auto blocker = scheduler.Submit(
        {.name = "blocker"},
        [](QueryControl& control) {
          while (!control.cancelled()) {
            std::this_thread::sleep_for(milliseconds(1));
          }
          return CancelledError("observed cancel");
        });
    ASSERT_TRUE(blocker.ok());
    auto waiting = scheduler.Submit(
        {.name = "queued"}, [&queued_body_ran](QueryControl&) {
          queued_body_ran = true;
          return Status::Ok();
        });
    ASSERT_TRUE(waiting.ok());
    queued = *waiting;
    // Destructor: CancelAll + drain. Must not hang, and must resolve the
    // queued handle even though its body never runs.
  }
  ASSERT_TRUE(queued->done());
  EXPECT_EQ(queued->Join().code(), StatusCode::kCancelled);
  EXPECT_FALSE(queued_body_ran.load());
}

// --- Core-level async execution on a shared cluster ----------------------

TEST(AsyncExecutorTest, ConcurrentQueriesMatchSerialExecution) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, 91);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  // Serial ground truth, one fresh fractoid per shape.
  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  std::vector<uint64_t> expected;
  for (uint32_t rounds = 0; rounds < 3; ++rounds) {
    const ExecutionResult result =
        MultiStepFractoid(graph, rounds, 0).Execute(serial);
    ASSERT_TRUE(result.status.ok()) << result.status;
    expected.push_back(result.num_subgraphs);
  }

  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 3;
  QueryScheduler scheduler(&cluster, options);

  // Two interleaved batches: 6 queries over 3 shapes, all in flight at once.
  std::vector<Fractoid> fractoids;
  for (int batch = 0; batch < 2; ++batch) {
    for (uint32_t rounds = 0; rounds < 3; ++rounds) {
      fractoids.push_back(MultiStepFractoid(graph, rounds, 0));
    }
  }
  std::vector<QueryHandle> handles;
  ExecutionConfig config;
  for (size_t i = 0; i < fractoids.size(); ++i) {
    // Appended, not `"q" + std::to_string(i)`: GCC 12's Release inliner
    // raises a -Wrestrict false positive on that operator+.
    std::string name = "q";
    name += std::to_string(i);
    auto handle = ExecuteFractoidAsync(fractoids[i], config, scheduler,
                                       {.name = std::move(name)});
    ASSERT_TRUE(handle.ok()) << handle.status();
    handles.push_back(*std::move(handle));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    const ExecutionResult& result = handles[i].Wait();
    ASSERT_TRUE(result.status.ok()) << "query " << i << ": " << result.status;
    // Bit-exact against the serial run of the same shape.
    EXPECT_EQ(result.num_subgraphs, expected[i % 3]) << "query " << i;
  }
  EXPECT_EQ(scheduler.stats().completed, handles.size());
}

TEST(AsyncExecutorTest, TwoQueriesOverlapOnSharedCluster) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 17);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions(/*workers=*/1, /*threads=*/4));
  QueryScheduler scheduler(&cluster, {.max_active = 2});

  // Multi-step + sleepy filters: each query's steps take tens of ms, so the
  // two alternate at the step-admission gate for a while.
  Fractoid a = MultiStepFractoid(graph, 3, 150);
  Fractoid b = MultiStepFractoid(graph, 3, 150);
  ExecutionConfig config;
  auto ha = ExecuteFractoidAsync(a, config, scheduler, {.name = "alpha"});
  auto hb = ExecuteFractoidAsync(b, config, scheduler, {.name = "beta"});
  ASSERT_TRUE(ha.ok() && hb.ok());

  // Poll for simultaneous progress: both unfinished while both have
  // completed at least one step (work_units advances at step barriers).
  bool overlapped = false;
  bool statusz_saw_both = false;
  while (!ha->done() || !hb->done()) {
    if (!ha->done() && !hb->done() &&
        ha->control().work_units.load() > 0 &&
        hb->control().work_units.load() > 0) {
      overlapped = true;
      const std::string statusz = cluster.RenderStatusz();
      if (statusz.find("alpha") != std::string::npos &&
          statusz.find("beta") != std::string::npos) {
        statusz_saw_both = true;
      }
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(overlapped)
      << "queries never made progress simultaneously on the shared cluster";
  EXPECT_TRUE(statusz_saw_both)
      << "/statusz never showed per-query rows for both in-flight queries";

  const ExecutionResult& ra = ha->Wait();
  const ExecutionResult& rb = hb->Wait();
  ASSERT_TRUE(ra.status.ok()) << ra.status;
  ASSERT_TRUE(rb.status.ok()) << rb.status;
  // Same shape, same graph: interleaving must not change the answer.
  EXPECT_EQ(ra.num_subgraphs, rb.num_subgraphs);
  EXPECT_EQ(ha->control().steps_run.load(), 4u);
  EXPECT_EQ(hb->control().steps_run.load(), 4u);
}

TEST(AsyncExecutorTest, CancellationMidStepUnwindsAndClusterStaysUsable) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 23);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster, {.max_active = 2});
  const uint64_t cancelled_before = obs::QueriesCancelledCounter().Value();

  Fractoid slow = MultiStepFractoid(graph, 4, 400);
  ExecutionConfig config;
  auto handle = ExecuteFractoidAsync(slow, config, scheduler,
                                     {.name = "cancel-me"});
  ASSERT_TRUE(handle.ok());

  // Let it get properly underway (at least one step barrier crossed), then
  // cancel mid-flight.
  while (handle->control().work_units.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  handle->Cancel();
  const ExecutionResult& result = handle->Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled) << result.status;
  EXPECT_EQ(obs::QueriesCancelledCounter().Value(), cancelled_before + 1);

  // The unwound step left no residue: the same cluster keeps serving
  // fresh executions with exact counts.
  ExecutionConfig reuse;
  reuse.cluster = &cluster;
  const ExecutionResult after =
      MultiStepFractoid(graph, 1, 0).Execute(reuse);
  ASSERT_TRUE(after.status.ok()) << after.status;
  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  EXPECT_EQ(after.num_subgraphs,
            MultiStepFractoid(graph, 1, 0).Execute(serial).num_subgraphs);
}

TEST(AsyncExecutorTest, DeadlineExpiryReturnsDeadlineExceeded) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 29);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster, {.max_active = 1});
  const uint64_t expired_before =
      obs::QueriesDeadlineExceededCounter().Value();

  // Plenty of sleepy work units: far more than 40ms of enumeration.
  Fractoid slow = MultiStepFractoid(graph, 4, 500);
  ExecutionConfig config;
  auto handle = ExecuteFractoidAsync(slow, config, scheduler,
                                     {.name = "deadline", .deadline_ms = 40});
  ASSERT_TRUE(handle.ok());
  const ExecutionResult& result = handle->Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
      << result.status;
  EXPECT_EQ(obs::QueriesDeadlineExceededCounter().Value(),
            expired_before + 1);
  EXPECT_TRUE(handle->control().DeadlineHit());
}

TEST(AsyncExecutorTest, RejectsForeignCluster) {
  Cluster cluster(SharedClusterOptions());
  Cluster other(SharedClusterOptions());
  QueryScheduler scheduler(&cluster);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(10, 20, 1, 1, 3));
  const Fractoid fractoid = graph.VFractoid().Expand(1);

  ExecutionConfig foreign;
  foreign.cluster = &other;
  EXPECT_EQ(ExecuteFractoidAsync(fractoid, foreign, scheduler)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// Names of the per-query units series on /metricsz
/// (fractal_runtime_query_units_<id>).
std::set<std::string> QueryUnitsSeries() {
  const std::string prefix = "fractal_runtime_query_units_";
  std::set<std::string> names;
  std::istringstream lines(obs::MetricsRegistry::Get().DumpPrometheus());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) == 0) {
      names.insert(line.substr(0, line.find(' ')));
    }
  }
  return names;
}

// Every step is a query: two synchronous executions (each its own id-0,
// weight-1 control) and one scheduled query interleave on one cluster's
// gate and stay bit-exact against serial runs. Only the scheduled id
// publishes a per-query series, so synchronous runs cannot pile them up.
TEST(AsyncExecutorTest, SynchronousRunsAndScheduledQueryShareTheGate) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 41);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 1;
  const ExecutionResult expected =
      MultiStepFractoid(graph, 2, 0).Execute(serial);
  ASSERT_TRUE(expected.status.ok()) << expected.status;

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster);
  ExecutionConfig shared;
  shared.cluster = &cluster;
  const std::set<std::string> series_before = QueryUnitsSeries();
  const uint64_t steps_before = cluster.steps_run();

  const Fractoid scheduled = MultiStepFractoid(graph, 2, 50);
  auto handle = ExecuteFractoidAsync(scheduled, shared, scheduler,
                                     {.name = "scheduled"});
  ASSERT_TRUE(handle.ok()) << handle.status();
  ExecutionResult sync_results[2];
  std::vector<std::thread> runners;
  for (ExecutionResult& result : sync_results) {
    runners.emplace_back([&graph, &shared, &result] {
      result = MultiStepFractoid(graph, 2, 50).Execute(shared);
    });
  }
  for (std::thread& runner : runners) runner.join();
  const ExecutionResult& scheduled_result = handle->Wait();

  for (const ExecutionResult* result :
       std::vector<const ExecutionResult*>{
           &sync_results[0], &sync_results[1], &scheduled_result}) {
    ASSERT_TRUE(result->status.ok()) << result->status;
    EXPECT_EQ(result->num_subgraphs, expected.num_subgraphs);
    EXPECT_EQ(result->steps_executed, expected.steps_executed);
    for (const char* name : {"count0", "count1"}) {
      const uint64_t* got = result->Aggregation<uint64_t, uint64_t>(name).Find(0);
      const uint64_t* want =
          expected.Aggregation<uint64_t, uint64_t>(name).Find(0);
      ASSERT_TRUE(got != nullptr && want != nullptr) << name;
      EXPECT_EQ(*got, *want) << name;
    }
  }
  EXPECT_EQ(cluster.steps_run() - steps_before,
            3 * uint64_t{expected.steps_executed});
  EXPECT_EQ(handle->control().steps_run.load(), expected.steps_executed);

  std::set<std::string> added;
  for (const std::string& name : QueryUnitsSeries()) {
    if (series_before.count(name) == 0) added.insert(name);
  }
  const std::string own =
      "fractal_runtime_query_units_" + std::to_string(handle->id());
  EXPECT_TRUE(added.empty() || added == std::set<std::string>{own});
  EXPECT_EQ(QueryUnitsSeries().count("fractal_runtime_query_units_0"), 0u);
}

// --- Same-fractoid concurrency contract ----------------------------------

TEST(ExecutorContractTest, SameFractoidConcurrentlyFailsPrecondition) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 41);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster, {.max_active = 2});

  Fractoid fractoid = MultiStepFractoid(graph, 3, 300);
  ExecutionConfig config;
  auto handle = ExecuteFractoidAsync(fractoid, config, scheduler,
                                     {.name = "first"});
  ASSERT_TRUE(handle.ok());
  // After the first step barrier the async run is provably inside the
  // executor, holding the fractoid's execution state.
  while (handle->control().work_units.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Same fractoid value, synchronous, on its own ephemeral cluster: the
  // shared cached-execution-state makes this unsupported.
  ExecutionConfig sync_config;
  sync_config.num_workers = 1;
  sync_config.threads_per_worker = 2;
  const ExecutionResult clash = fractoid.Execute(sync_config);
  EXPECT_EQ(clash.status.code(), StatusCode::kFailedPrecondition)
      << clash.status;

  const ExecutionResult& first = handle->Wait();
  EXPECT_TRUE(first.status.ok()) << first.status;

  // Once the first execution resolved, the fractoid is executable again.
  const ExecutionResult again = fractoid.Execute(sync_config);
  EXPECT_TRUE(again.status.ok()) << again.status;
}

// --- Chaos: fault injection × concurrent queries -------------------------

TEST(SchedulerChaosTest, WorkerCrashDuringConcurrentQueries) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, 77);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  const uint64_t expected =
      MultiStepFractoid(graph, 2, 0).Execute(serial).num_subgraphs;

  ClusterOptions cluster_options = SharedClusterOptions(/*workers=*/2,
                                                        /*threads=*/2);
  Cluster cluster(cluster_options);

  for (int round = 0; round < 3; ++round) {
    QueryScheduler scheduler(&cluster, {.max_active = 3});
    std::vector<Fractoid> fractoids;
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 3; ++i) {
      fractoids.push_back(MultiStepFractoid(graph, 2, 50));
    }
    for (int i = 0; i < 3; ++i) {
      ExecutionConfig config;
      if (i == 0) {
        // One tenant crashes worker 1 mid-step; per-query step retry must
        // recover it without disturbing the clean tenants.
        config.fault_plan = FaultPlan(round + 1).CrashWorker(1, 40);
      }
      auto handle = ExecuteFractoidAsync(
          fractoids[i], config, scheduler,
          {.name = (i == 0 ? "chaos" : "clean-" + std::to_string(i))});
      ASSERT_TRUE(handle.ok()) << handle.status();
      handles.push_back(*std::move(handle));
    }
    for (int i = 0; i < 3; ++i) {
      const ExecutionResult& result = handles[i].Wait();
      ASSERT_TRUE(result.status.ok())
          << "round " << round << " query " << i << ": " << result.status;
      EXPECT_EQ(result.num_subgraphs, expected)
          << "round " << round << " query " << i;
    }
    EXPECT_GT(handles[0].Wait().steps_retried, 0u)
        << "round " << round << ": fault plan never fired";
    // The crashed worker stays excluded until explicitly re-admitted.
    cluster.RestoreAllWorkers();
  }
}

// Two tenants crash different workers of one shared cluster: each one's
// recovery runs while the other's deaths change the live mask, and every
// query must stay bit-exact.
TEST(SchedulerChaosTest, TwoCrashingTenantsShareOneCluster) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, 77);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  const uint64_t expected =
      MultiStepFractoid(graph, 2, 0).Execute(serial).num_subgraphs;

  Cluster cluster(SharedClusterOptions(/*workers=*/4, /*threads=*/1));
  for (int round = 0; round < 3; ++round) {
    QueryScheduler scheduler(&cluster, {.max_active = 3});
    std::vector<Fractoid> fractoids;
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 3; ++i) {
      fractoids.push_back(MultiStepFractoid(graph, 2, 50));
    }
    for (int i = 0; i < 3; ++i) {
      ExecutionConfig config;
      // Tenants 0 and 1 crash workers 1 and 2; tenant 2 is clean.
      if (i < 2) config.fault_plan = FaultPlan(round + 1).CrashWorker(i + 1, 10);
      auto handle = ExecuteFractoidAsync(fractoids[i], config, scheduler,
                                         {.name = "tenant-" + std::to_string(i)});
      ASSERT_TRUE(handle.ok()) << handle.status();
      handles.push_back(*std::move(handle));
    }
    for (int i = 0; i < 3; ++i) {
      const ExecutionResult& result = handles[i].Wait();
      ASSERT_TRUE(result.status.ok())
          << "round " << round << " query " << i << ": " << result.status;
      EXPECT_EQ(result.num_subgraphs, expected)
          << "round " << round << " query " << i;
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_GT(handles[i].Wait().steps_retried, 0u)
          << "round " << round << " query " << i << ": fault plan never fired";
    }
    cluster.RestoreAllWorkers();
  }
}

// A worker marked dead by another tenant while a query waits at the
// admission gate: the query's step then runs on fewer workers than when its
// lineage ledger was built. The ledger must own the roots by the mask the
// step ran on, or the later salvage of a crash replays the wrong roots and
// silently drops results.
TEST(SchedulerChaosTest, WorkerLostWhileQueuedAtGateIsSalvagedExactly) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, 77);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 1;
  const uint64_t expected =
      graph.VFractoid().Expand(3).Execute(serial).num_subgraphs;

  // One thread per worker and no stealing: each worker drains exactly its
  // contiguous root slice, so the crash leaves a known frontier behind.
  ClusterOptions options = SharedClusterOptions(/*workers=*/4, /*threads=*/1);
  options.external_work_stealing = false;
  options.internal_work_stealing = false;
  Cluster cluster(options);
  ExecutionConfig shared;
  shared.cluster = &cluster;

  // The holder occupies the step slot until released.
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  const Fractoid holder = graph.VFractoid().Expand(1).Filter(
      [&](const Subgraph&, Computation&) {
        holding.store(true);
        while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
        return true;
      });
  ExecutionResult holder_result;
  std::thread holder_thread(
      [&] { holder_result = ExecuteFractoid(holder, shared); });
  while (!holding.load()) std::this_thread::sleep_for(milliseconds(1));

  // The crashing query builds its ledger over all four workers and queues
  // at the gate; meanwhile worker 2 is lost to another tenant.
  ExecutionConfig crashing = shared;
  crashing.fault_plan = FaultPlan().CrashWorker(1, 5);
  const Fractoid query = graph.VFractoid().Expand(3);
  ExecutionResult result;
  std::thread query_thread(
      [&] { result = ExecuteFractoid(query, crashing); });
  std::this_thread::sleep_for(milliseconds(200));
  cluster.MarkWorkerDead(2);
  release.store(true);
  holder_thread.join();
  query_thread.join();

  ASSERT_TRUE(holder_result.status.ok()) << holder_result.status;
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.steps_retried, 1u);
  EXPECT_EQ(result.salvage_passes, 1u);
  EXPECT_EQ(result.num_subgraphs, expected);
}

}  // namespace
}  // namespace fractal
