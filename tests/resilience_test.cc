// Resilience suite: fault-injection framework, bounded steal RPCs, crash
// containment, degraded re-execution, and lineage-based partial recovery
// (DESIGN.md §7, §11). The load-bearing property throughout is *exactness*:
// under any fault plan, results must be bit-identical to a fault-free run —
// the from-scratch step model discards failed attempts wholesale, the
// claim-after-commit steal rendezvous guarantees no work unit is lost or
// duplicated by timeouts, and the salvage mode's ledger replays exactly the
// crashed worker's unfinished fractoid tasks, no more and no less.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "apps/cliques.h"
#include "apps/motifs.h"
#include "core/context.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"
#include "runtime/message_bus.h"
#include "util/timer.h"

namespace fractal {
namespace {

// --- FaultPlan parsing and validation -------------------------------------

TEST(FaultPlanTest, ParseRoundTrip) {
  const char* spec =
      "crash:w=1,after=50;crash:w=0,p=0.001;crash-service:w=0,after=3;"
      "drop:p=0.05;delay:p=0.1,us=5000;slow:w=1,us=20";
  auto plan = FaultPlan::Parse(spec, 42);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().seed(), 42u);
  ASSERT_EQ(plan.value().specs().size(), 6u);
  EXPECT_EQ(plan.value().specs()[0].kind, FaultKind::kCrashWorker);
  EXPECT_EQ(plan.value().specs()[1].kind, FaultKind::kCrashWorkerRandom);
  EXPECT_EQ(plan.value().specs()[2].kind, FaultKind::kCrashStealService);
  EXPECT_EQ(plan.value().specs()[3].kind, FaultKind::kDropRequest);
  EXPECT_EQ(plan.value().specs()[4].kind, FaultKind::kDelayRequest);
  EXPECT_EQ(plan.value().specs()[5].kind, FaultKind::kSlowWorker);

  // ToString re-parses to the identical plan.
  auto reparsed = FaultPlan::Parse(plan.value().ToString(), 42);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().ToString(), plan.value().ToString());
}

TEST(FaultPlanTest, ParsesCrashInSalvage) {
  auto plan = FaultPlan::Parse("crash:w=2,after=30;crash-in-salvage:w=1,after=10", 9);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().specs().size(), 2u);
  EXPECT_EQ(plan.value().specs()[1].kind, FaultKind::kCrashWorkerInSalvage);
  EXPECT_EQ(plan.value().specs()[1].worker, 1);
  EXPECT_EQ(plan.value().specs()[1].after_units, 10u);

  auto reparsed = FaultPlan::Parse(plan.value().ToString(), 9);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().ToString(), plan.value().ToString());

  // Same target/threshold validation as plain crashes.
  EXPECT_FALSE(FaultPlan().CrashWorkerInSalvage(2, 10).Validate(2).ok());
  EXPECT_FALSE(FaultPlan().CrashWorkerInSalvage(0, 0).Validate(2).ok());
  EXPECT_TRUE(FaultPlan().CrashWorkerInSalvage(1, 10).Validate(2).ok());
}

TEST(FaultPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::Parse("explode:w=1", 0).ok());
  EXPECT_FALSE(FaultPlan::Parse("crash:w=banana", 0).ok());
  EXPECT_FALSE(FaultPlan::Parse("crash:", 0).ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:p=nope", 0).ok());
}

TEST(FaultPlanTest, ValidateChecksTargetsAndRates) {
  EXPECT_FALSE(FaultPlan().CrashWorker(2, 10).Validate(2).ok());
  EXPECT_TRUE(FaultPlan().CrashWorker(1, 10).Validate(2).ok());
  // A deterministic crash at unit 0 would never fire (units are 1-based).
  EXPECT_FALSE(FaultPlan().CrashWorker(0, 0).Validate(2).ok());
  EXPECT_FALSE(FaultPlan().DropStealRequests(1.5).Validate(2).ok());
  EXPECT_FALSE(FaultPlan().SlowWorker(0, -5).Validate(2).ok());
}

// --- FaultInjector semantics ----------------------------------------------

TEST(FaultInjectorTest, DeterministicCrashFiresExactlyOnceUnderRaces) {
  FaultInjector injector(FaultPlan().CrashWorker(0, 100));
  injector.BeginStep();
  // Many threads race through the work-unit hook; the unique fetch_add
  // numbering plus the fired-exchange must yield exactly one crash event.
  std::vector<std::thread> threads;
  std::atomic<uint64_t> false_returns{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&injector, &false_returns] {
      for (int j = 0; j < 1000; ++j) {
        if (!injector.OnWorkUnit(0)) false_returns.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(injector.crash_events(), 1u);
  EXPECT_TRUE(injector.WorkerCrashed(0));
  EXPECT_FALSE(injector.CrashCause(0).empty());
  // Every unit consumed after the trigger observed the crash.
  EXPECT_GT(false_returns.load(), 0u);

  // Deterministic entries are one-shot across retries: the next step
  // attempt must not re-fire.
  injector.BeginStep();
  EXPECT_FALSE(injector.WorkerCrashed(0));
  for (int j = 0; j < 1000; ++j) injector.OnWorkUnit(0);
  EXPECT_EQ(injector.crash_events(), 1u);
  EXPECT_FALSE(injector.WorkerCrashed(0));
}

TEST(FaultInjectorTest, RandomCrashRearmsEachStep) {
  // p=1 defeats retries: the worker crashes again on every attempt.
  FaultInjector injector(FaultPlan(7).CrashWorkerRandomly(1, 1.0));
  for (int step = 0; step < 3; ++step) {
    injector.BeginStep();
    EXPECT_FALSE(injector.OnWorkUnit(1));
    EXPECT_TRUE(injector.WorkerCrashed(1));
  }
  EXPECT_EQ(injector.crash_events(), 3u);
}

TEST(FaultInjectorTest, SalvageCrashGatedOnSalvagePass) {
  FaultInjector injector(FaultPlan().CrashWorkerInSalvage(0, 5));
  injector.BeginStep();
  // Units consumed outside a salvage pass never advance the trigger.
  for (int j = 0; j < 100; ++j) EXPECT_TRUE(injector.OnWorkUnit(0));
  EXPECT_EQ(injector.crash_events(), 0u);
  EXPECT_FALSE(injector.WorkerCrashed(0));

  // The executor arms the entry around a salvage replay pass; the Nth
  // *replayed* unit fires it. BeginStep must not clear the arming (the
  // pass spans one RunStep).
  injector.SetSalvagePass(true);
  injector.BeginStep();
  for (int j = 0; j < 5; ++j) injector.OnWorkUnit(0);
  EXPECT_TRUE(injector.WorkerCrashed(0));
  EXPECT_EQ(injector.crash_events(), 1u);
  EXPECT_FALSE(injector.OnWorkUnit(0));
  EXPECT_FALSE(injector.CrashCause(0).empty());

  // One-shot across later passes and steps.
  injector.BeginStep();
  for (int j = 0; j < 100; ++j) injector.OnWorkUnit(0);
  EXPECT_EQ(injector.crash_events(), 1u);
}

TEST(FaultInjectorTest, StealServiceDeathIsSticky) {
  FaultInjector injector(FaultPlan().CrashStealService(0, 2));
  injector.BeginStep();
  EXPECT_TRUE(injector.OnStealRequestArrived(0));   // request 1 served
  EXPECT_TRUE(injector.OnStealRequestArrived(0));   // request 2 served
  EXPECT_FALSE(injector.OnStealRequestArrived(0));  // dead from now on
  injector.BeginStep();  // service death survives step retries
  EXPECT_FALSE(injector.OnStealRequestArrived(0));
}

// --- Bounded steal RPCs ----------------------------------------------------

TEST(StealDeadlineTest, RequestAgainstSilentVictimReturnsWithinDeadline) {
  NetworkConfig net;
  net.latency_micros = 0;
  net.request_timeout_micros = 5000;
  MessageBus bus(2, net);
  // Nobody services worker 1's inbox — the exact shape of a dead steal
  // service. The request must come back as kTimeout within the deadline
  // (plus scheduling slack), never hang.
  WallTimer timer;
  const StealReply reply = bus.RequestSteal(0, 1);
  const int64_t elapsed = timer.ElapsedMicros();
  EXPECT_EQ(reply.outcome, StealOutcome::kTimeout);
  EXPECT_GE(elapsed, net.request_timeout_micros);
  // Generous slack for CI schedulers; the point is "bounded, not hung".
  EXPECT_LT(elapsed, net.request_timeout_micros * 20);
  bus.Shutdown();
}

TEST(StealDeadlineTest, AbandonedRequestRefusesLateReply) {
  NetworkConfig net;
  net.latency_micros = 0;
  net.request_timeout_micros = 1000;
  MessageBus bus(2, net);
  std::thread requester([&bus] {
    EXPECT_EQ(bus.RequestSteal(0, 1).outcome, StealOutcome::kTimeout);
  });
  // Pick the request up well after the requester's deadline: the
  // claim-after-commit handshake must refuse the commit, so no work can be
  // claimed for a requester that is no longer waiting.
  auto token = bus.WaitForRequest(1);
  ASSERT_TRUE(token.has_value());
  requester.join();
  EXPECT_FALSE(bus.BeginReply(*token));
  bus.Reply(*token, std::nullopt);  // empty reply to an abandoned token: ok
  bus.Shutdown();
}

TEST(StealDeadlineTest, DroppedRequestBurnsDeadlineAndCounts) {
  NetworkConfig net;
  net.latency_micros = 0;
  net.request_timeout_micros = 2000;
  MessageBus bus(2, net);
  auto injector =
      std::make_shared<FaultInjector>(FaultPlan(3).DropStealRequests(1.0));
  injector->BeginStep();
  bus.SetFaultInjector(injector);
  const uint64_t dropped_before = obs::DroppedRequestsCounter().Value();
  EXPECT_EQ(bus.RequestSteal(0, 1).outcome, StealOutcome::kTimeout);
  EXPECT_GT(obs::DroppedRequestsCounter().Value(), dropped_before);
  bus.Shutdown();
}

TEST(StealDeadlineTest, CrashedWorkerEndpointRefusesInstantly) {
  NetworkConfig net;
  net.latency_micros = 0;
  net.request_timeout_micros = 1000000;  // 1s: a hang would be visible
  MessageBus bus(2, net);
  auto injector =
      std::make_shared<FaultInjector>(FaultPlan().CrashWorker(1, 1));
  injector->BeginStep();
  EXPECT_FALSE(injector->OnWorkUnit(1));  // crash worker 1
  bus.SetFaultInjector(injector);
  WallTimer timer;
  EXPECT_EQ(bus.RequestSteal(0, 1).outcome, StealOutcome::kNoWork);
  // Connection-refused semantics: far faster than the deadline.
  EXPECT_LT(timer.ElapsedMicros(), net.request_timeout_micros / 2);
  bus.Shutdown();
}

// --- End-to-end recovery ---------------------------------------------------

FractalGraph TestGraph(FractalContext& fctx) {
  return fctx.FromGraph(GenerateRandomGraph(30, 90, 1, 1, 4242));
}

ExecutionConfig TwoWorkers() {
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  return config;
}

TEST(RecoveryTest, DeadStealServiceNeverHangsTheStep) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  ExecutionConfig healthy = TwoWorkers();
  const uint64_t expected =
      graph.VFractoid().Expand(3).CountSubgraphs(healthy);

  ExecutionConfig faulty = TwoWorkers();
  faulty.network.request_timeout_micros = 2000;
  faulty.network.max_steal_retries = 2;
  faulty.network.retry_backoff_micros = 100;
  faulty.network.suspect_after_timeouts = 2;
  // Worker 1's steal service is dead from the first request, and worker 1
  // itself straggles so worker 0 is guaranteed to go stealing externally.
  faulty.fault_plan =
      FaultPlan().CrashStealService(1, 0).SlowWorker(1, 20);
  const uint64_t timeouts_before = obs::StealTimeoutsCounter().Value();
  WallTimer timer;
  const ExecutionResult result = graph.VFractoid().Expand(3).Execute(faulty);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.num_subgraphs, expected);
  EXPECT_EQ(result.steps_retried, 0u);  // no worker crash, only timeouts
  EXPECT_GT(obs::StealTimeoutsCounter().Value(), timeouts_before);
  // Bounded: timeouts resolve within the deadline budget, not by hanging.
  EXPECT_LT(timer.ElapsedSeconds(), 30.0);
  // The per-thread timeout stat surfaced in telemetry too.
  uint64_t stat_timeouts = 0;
  for (const auto& step : result.telemetry.steps) {
    for (const auto& t : step.threads) stat_timeouts += t.steal_timeouts;
  }
  EXPECT_GT(stat_timeouts, 0u);
}

TEST(RecoveryTest, DegradedReexecutionRunsOnSurvivors) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  ExecutionConfig healthy;
  healthy.num_workers = 3;
  healthy.threads_per_worker = 2;
  healthy.network.latency_micros = 1;
  const uint64_t expected =
      graph.VFractoid().Expand(3).CountSubgraphs(healthy);

  // WS_ext off: no other worker can take worker 2's root partition, so
  // worker 2 consumes every unit of it itself and the work-unit crash
  // trigger below fires however fast the other workers finish and steal.
  ClusterOptions options;
  options.num_workers = 3;
  options.threads_per_worker = 2;
  options.external_work_stealing = false;
  options.network.latency_micros = 1;
  Cluster cluster(options);

  // The trigger must lie inside worker 2's own share of the step.
  ExecutionConfig clean;
  clean.cluster = &cluster;
  const ExecutionResult clean_run = graph.VFractoid().Expand(3).Execute(clean);
  ASSERT_TRUE(clean_run.status.ok()) << clean_run.status;
  ASSERT_EQ(clean_run.telemetry.steps.size(), 1u);
  uint64_t worker2_units = 0;
  for (const ThreadStats& t : clean_run.telemetry.steps[0].threads) {
    if (t.worker_id == 2) worker2_units += t.work_units;
  }
  constexpr uint64_t kCrashAfter = 30;
  ASSERT_GE(worker2_units, kCrashAfter);

  // A zero salvage-pass budget asks for from-scratch recovery: the whole
  // step re-runs on the survivors.
  ExecutionConfig faulty;
  faulty.cluster = &cluster;
  faulty.fault_plan = FaultPlan().CrashWorker(2, kCrashAfter);
  faulty.retry.max_salvage_passes = 0;
  const uint64_t degraded_before = obs::StepsDegradedCounter().Value();
  const ExecutionResult result = graph.VFractoid().Expand(3).Execute(faulty);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.num_subgraphs, expected);
  EXPECT_EQ(result.steps_retried, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].worker, 2);

  // The crashed worker was excluded: the successful attempt ran on the two
  // survivors (W−1), visible in the live mask, the per-thread telemetry,
  // and the degraded-steps metric.
  EXPECT_EQ(cluster.num_live_workers(), 2u);
  ASSERT_EQ(result.telemetry.steps.size(), 1u);
  EXPECT_EQ(result.telemetry.steps[0].threads.size(), 4u);
  EXPECT_GT(obs::StepsDegradedCounter().Value(), degraded_before);
}

TEST(RecoveryTest, ExhaustedRetriesReturnStatusNotAbort) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  ExecutionConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  // p=1 random crashes re-arm every attempt. Workers 1 and 2 both die in
  // the first attempt, which salvage cannot attribute, so the step re-runs
  // from scratch without the reported worker; the other one crashes that
  // attempt too and the budget is exhausted.
  config.fault_plan =
      FaultPlan(11).CrashWorkerRandomly(1, 1.0).CrashWorkerRandomly(2, 1.0);
  config.retry.max_attempts = 2;
  const ExecutionResult result = graph.VFractoid().Expand(2).Execute(config);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.steps_retried, 2u);
  EXPECT_EQ(result.failures.size(), 2u);
}

TEST(RecoveryTest, LastWorkerCrashIsFailedPrecondition) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  config.fault_plan = FaultPlan(5).CrashWorkerRandomly(0, 1.0);
  const ExecutionResult result = graph.VFractoid().Expand(2).Execute(config);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

// --- Lineage-based partial recovery (salvage) ------------------------------

void ExpectSameMotifs(const MotifsResult& actual,
                      const MotifsResult& expected) {
  EXPECT_EQ(actual.total, expected.total);
  ASSERT_EQ(actual.counts.size(), expected.counts.size());
  for (const auto& [pattern, count] : expected.counts) {
    const auto it = actual.counts.find(pattern);
    ASSERT_NE(it, actual.counts.end());
    EXPECT_EQ(it->second, count);
  }
}

// The acceptance bound of the salvage model: with a crash at 50% of the
// victim's fault-free work, the replay pass must cost well under 0.6x the
// from-scratch re-execution on the same fault plan, and the aggregation
// output must stay bit-exact.
TEST(SalvageTest, HalfwayCrashReplaysLessThanFromScratch) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  // WS_ext off in every run: worker 1's two threads only steal from each
  // other, so worker 1 consumes exactly the units of its own root partition.
  // The clean run's count is then what worker 1 reaches in the faulty runs
  // too, and the halfway crash fires deterministically.
  ExecutionConfig healthy = TwoWorkers();
  healthy.external_work_stealing = false;
  const MotifsResult clean = CountMotifs(graph, 3, healthy);
  ASSERT_TRUE(clean.execution.status.ok()) << clean.execution.status;
  ASSERT_EQ(clean.execution.telemetry.steps.size(), 1u);
  const auto& clean_threads = clean.execution.telemetry.steps[0].threads;
  ASSERT_EQ(clean_threads.size(), 4u);
  // Worker 1 owns global threads 2 and 3 (two threads per worker).
  const uint64_t worker1_units =
      clean_threads[2].work_units + clean_threads[3].work_units;
  ASSERT_GT(worker1_units, 20u);
  const uint64_t crash_after = worker1_units / 2;

  // From-scratch recovery (no salvage-pass budget): the successful attempt
  // re-enumerates the whole step on the survivor.
  ExecutionConfig scratch = healthy;
  scratch.fault_plan = FaultPlan().CrashWorker(1, crash_after);
  scratch.retry.max_salvage_passes = 0;
  const MotifsResult scratch_run = CountMotifs(graph, 3, scratch);
  ASSERT_TRUE(scratch_run.execution.status.ok())
      << scratch_run.execution.status;
  EXPECT_EQ(scratch_run.execution.steps_retried, 1u);
  EXPECT_EQ(scratch_run.execution.salvage_passes, 0u);
  EXPECT_EQ(scratch_run.execution.units_replayed, 0u);
  ASSERT_EQ(scratch_run.execution.telemetry.steps.size(), 1u);
  const uint64_t scratch_units =
      scratch_run.execution.telemetry.steps[0].TotalWorkUnits();
  ExpectSameMotifs(scratch_run, clean);

  // Default recovery salvages: same crash, but only the tasks worker 1
  // left unfinished are re-enumerated on the survivor.
  ExecutionConfig salvage = healthy;
  salvage.fault_plan = FaultPlan().CrashWorker(1, crash_after);
  const MotifsResult salvaged = CountMotifs(graph, 3, salvage);
  ASSERT_TRUE(salvaged.execution.status.ok()) << salvaged.execution.status;
  EXPECT_EQ(salvaged.execution.steps_retried, 1u);
  EXPECT_EQ(salvaged.execution.salvage_passes, 1u);
  EXPECT_GT(salvaged.execution.units_salvaged, 0u);
  EXPECT_GT(salvaged.execution.units_replayed, 0u);
  EXPECT_LT(salvaged.execution.units_replayed, (scratch_units * 6) / 10);
  // Worker 1 owns a small share of the step, so the bound above holds for
  // any replay confined to worker 1. Crashed halfway, salvage must also
  // replay less than worker 1's whole budget.
  EXPECT_LT(salvaged.execution.units_replayed, worker1_units);
  ExpectSameMotifs(salvaged, clean);
}

// Property test: salvaged runs are bit-exact against fault-free runs for
// both aggregation output (motifs) and plain counting (cliques), across a
// sweep of graphs, crash targets, and crash points.
TEST(SalvageTest, SalvagedMotifsAndCliquesBitExact) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    FractalContext fctx;
    FractalGraph graph =
        fctx.FromGraph(GenerateRandomGraph(28, 80, 1, 1, seed * 7 + 1));
    ExecutionConfig baseline;
    baseline.num_workers = 3;
    baseline.threads_per_worker = 2;
    baseline.network.latency_micros = 1;

    ExecutionConfig salvage = baseline;
    salvage.fault_plan = FaultPlan().CrashWorker(
        static_cast<int32_t>(seed % 3), 20 + seed * 15);
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan '" +
                 salvage.fault_plan.ToString() + "'");

    const MotifsResult clean_motifs = CountMotifs(graph, 3, baseline);
    const MotifsResult salvaged_motifs = CountMotifs(graph, 3, salvage);
    ASSERT_TRUE(salvaged_motifs.execution.status.ok())
        << salvaged_motifs.execution.status;
    ExpectSameMotifs(salvaged_motifs, clean_motifs);

    EXPECT_EQ(CountCliques(graph, 4, salvage),
              CountCliques(graph, 4, baseline));
  }
}

// A crash-during-recovery plan that reliably fires both entries: crash the
// most loaded worker (per the clean run's telemetry) a quarter into its
// share so the replay frontier is large, then kill a survivor at its 3rd
// replayed unit.
struct NestedPlanFixture {
  MotifsResult clean;
  ExecutionConfig baseline;
  FaultPlan plan;

  explicit NestedPlanFixture(const FractalGraph& graph) {
    baseline.num_workers = 3;
    baseline.threads_per_worker = 2;
    baseline.network.latency_micros = 1;
    clean = CountMotifs(graph, 3, baseline);
    const auto& threads = clean.execution.telemetry.steps[0].threads;
    uint64_t worker_units[3] = {};
    for (uint32_t w = 0; w < 3; ++w) {
      worker_units[w] =
          threads[w * 2].work_units + threads[w * 2 + 1].work_units;
    }
    const uint32_t victim = static_cast<uint32_t>(
        std::max_element(worker_units, worker_units + 3) - worker_units);
    plan.CrashWorker(static_cast<int32_t>(victim), worker_units[victim] / 4)
        .CrashWorkerInSalvage(static_cast<int32_t>((victim + 1) % 3), 3);
  }
};

// Crash-during-recovery: a second worker dies mid-replay; the ledger
// prepares a nested salvage pass onto the remaining survivor, still exact.
TEST(SalvageTest, NestedCrashDuringSalvage) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  const NestedPlanFixture fx(graph);

  ExecutionConfig faulty = fx.baseline;
  faulty.fault_plan = fx.plan;
  faulty.retry.max_attempts = 4;
  const MotifsResult result = CountMotifs(graph, 3, faulty);
  ASSERT_TRUE(result.execution.status.ok()) << result.execution.status;
  EXPECT_EQ(result.execution.steps_retried, 2u);
  EXPECT_EQ(result.execution.salvage_passes, 2u);
  ExpectSameMotifs(result, fx.clean);
}

// When the salvage-pass budget runs out mid-recovery the step falls back to
// a from-scratch retry on the survivors — results must stay exact.
TEST(SalvageTest, FallsBackToScratchWhenPassBudgetExhausted) {
  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);
  const NestedPlanFixture fx(graph);

  ExecutionConfig faulty = fx.baseline;
  faulty.fault_plan = fx.plan;
  faulty.retry.max_attempts = 4;
  faulty.retry.max_salvage_passes = 1;
  const MotifsResult result = CountMotifs(graph, 3, faulty);
  ASSERT_TRUE(result.execution.status.ok()) << result.execution.status;
  EXPECT_EQ(result.execution.steps_retried, 2u);
  EXPECT_EQ(result.execution.salvage_passes, 1u);
  ExpectSameMotifs(result, fx.clean);
}

// --- Chaos sweep -----------------------------------------------------------

// Seeded random fault plans must all converge to bit-identical results
// under from-scratch recovery (no salvage-pass budget), the fallback that
// SalvageChaosTest below only reaches when salvage cannot apply.
// FRACTAL_CHAOS_SEEDS overrides the sweep width (ci.sh's chaos stage runs a
// wider fixed matrix than the default).
TEST(ChaosTest, RandomFaultPlansAreExact) {
  int num_seeds = 20;
  if (const char* env = std::getenv("FRACTAL_CHAOS_SEEDS")) {
    num_seeds = std::atoi(env);
    ASSERT_GT(num_seeds, 0);
  }

  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);

  ExecutionConfig baseline;
  baseline.num_workers = 3;
  baseline.threads_per_worker = 2;
  baseline.network.latency_micros = 1;
  const MotifsResult clean_motifs = CountMotifs(graph, 3, baseline);
  const uint64_t clean_cliques = CountCliques(graph, 4, baseline);

  for (int seed = 1; seed <= num_seeds; ++seed) {
    ExecutionConfig chaotic = baseline;
    // Tight deadline so dropped requests don't stall the sweep; delay
    // spikes (<= ~2.2ms) can exceed it, which only costs a retry.
    chaotic.network.request_timeout_micros = 3000;
    chaotic.network.max_steal_retries = 2;
    chaotic.network.retry_backoff_micros = 50;
    chaotic.network.suspect_after_timeouts = 2;
    chaotic.retry.max_salvage_passes = 0;
    chaotic.fault_plan =
        FaultPlan::Random(static_cast<uint64_t>(seed), 3);
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan '" +
                 chaotic.fault_plan.ToString() + "'");

    const MotifsResult motifs = CountMotifs(graph, 3, chaotic);
    EXPECT_EQ(motifs.total, clean_motifs.total);
    ASSERT_EQ(motifs.counts.size(), clean_motifs.counts.size());
    for (const auto& [pattern, count] : clean_motifs.counts) {
      const auto it = motifs.counts.find(pattern);
      ASSERT_NE(it, motifs.counts.end());
      EXPECT_EQ(it->second, count);
    }
    EXPECT_EQ(CountCliques(graph, 4, chaotic), clean_cliques);
  }
}

// The same sweep under the default recovery: every random plan — including
// the crash + crash-during-recovery composites Random() generates — must
// converge to bit-identical results when retries replay from the ledger
// instead of re-running from scratch.
TEST(SalvageChaosTest, RandomFaultPlansAreExact) {
  int num_seeds = 12;
  if (const char* env = std::getenv("FRACTAL_CHAOS_SEEDS")) {
    num_seeds = std::atoi(env);
    ASSERT_GT(num_seeds, 0);
  }

  FractalContext fctx;
  FractalGraph graph = TestGraph(fctx);

  ExecutionConfig baseline;
  baseline.num_workers = 3;
  baseline.threads_per_worker = 2;
  baseline.network.latency_micros = 1;
  const MotifsResult clean_motifs = CountMotifs(graph, 3, baseline);
  const uint64_t clean_cliques = CountCliques(graph, 4, baseline);

  for (int seed = 1; seed <= num_seeds; ++seed) {
    ExecutionConfig chaotic = baseline;
    chaotic.network.request_timeout_micros = 3000;
    chaotic.network.max_steal_retries = 2;
    chaotic.network.retry_backoff_micros = 50;
    chaotic.network.suspect_after_timeouts = 2;
    chaotic.retry.max_attempts = 4;
    chaotic.fault_plan =
        FaultPlan::Random(static_cast<uint64_t>(seed), 3);
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan '" +
                 chaotic.fault_plan.ToString() + "'");

    const MotifsResult motifs = CountMotifs(graph, 3, chaotic);
    ASSERT_TRUE(motifs.execution.status.ok()) << motifs.execution.status;
    ExpectSameMotifs(motifs, clean_motifs);
    EXPECT_EQ(CountCliques(graph, 4, chaotic), clean_cliques);
  }
}

}  // namespace
}  // namespace fractal
