// Resilience bench (paper §4, fault tolerance): two measurements.
//
// 1. Recovery latency, from-scratch vs salvage. The paper's argument is
//    that from-scratch fractal steps make fault tolerance nearly free: a
//    failed step is discarded wholesale and re-executed on the survivors.
//    The lineage ledger (DESIGN.md §11) sharpens that: only the crashed
//    worker's unfinished fractoid tasks are re-enumerated. We crash worker
//    1 after 25% / 50% / 75% of its fault-free work-unit budget and recover
//    both ways — by default (salvage) and with no salvage-pass budget
//    (from scratch) — reporting wall time, re-executed work units, the
//    salvage/scratch replay ratio and the salvage replay over worker 1's
//    own fault-free budget, checking both recovered results are
//    bit-identical to the fault-free baseline. With --recovery-out <path>
//    both ratios are written as google-benchmark JSON over the
//    deterministic work-unit model for tools/bench_compare.py gating.
//
// 2. Steal-deadline overhead. Bounding every WS_ext round trip with a
//    deadline (timed waits, retry bookkeeping, per-victim health) must not
//    tax the fault-free hot path. We run the same steal-heavy workload
//    with deadlines disabled (request_timeout_micros = 0, the
//    pre-resilience untimed wait) and enabled, and compare wall times.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "apps/motifs.h"
#include "bench/bench_util.h"
#include "runtime/fault.h"
#include "util/check.h"

using namespace fractal;

namespace {

ExecutionConfig BenchCluster() {
  ExecutionConfig config = bench::DefaultCluster();  // 2 workers x 2 cores
  config.network.request_timeout_micros = 50000;
  config.network.retry_backoff_micros = 50;
  return config;
}

/// The recovery runs turn WS_ext off: worker 1's two threads only steal
/// from each other, so worker 1 consumes exactly the units of its own root
/// partition, the fault-free budget is the same every run, and every crash
/// point below fires.
ExecutionConfig RecoveryCluster() {
  ExecutionConfig config = BenchCluster();
  config.external_work_stealing = false;
  return config;
}

/// Worker 1's total fault-free work units across all steps — the budget the
/// crash fractions are taken from (FaultInjector unit counters are
/// cumulative per worker across the whole execution).
uint64_t Worker1Units(const ExecutionTelemetry& telemetry) {
  uint64_t units = 0;
  for (const StepTelemetry& step : telemetry.steps) {
    for (const ThreadStats& t : step.threads) {
      if (t.worker_id == 1) units += t.work_units;
    }
  }
  return units;
}

double MedianOf3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

int main(int argc, char** argv) {
  fractal::bench::TraceSession trace_session(argc, argv);
  std::string recovery_out;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--recovery-out") && i + 1 < argc) {
      recovery_out = argv[++i];
    } else if (!std::strncmp(argv[i], "--recovery-out=", 15)) {
      recovery_out = argv[i] + 15;
    }
  }
  bench::Header("Resilience: recovery latency and steal-deadline overhead",
                "paper section 4 (fault tolerance of from-scratch steps)");

  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(bench::SmallMico());
  constexpr uint32_t kMotifSize = 3;

  // --- 1. recovery latency -----------------------------------------------
  const ExecutionConfig baseline_config = RecoveryCluster();
  WallTimer baseline_timer;
  const MotifsResult baseline = CountMotifs(graph, kMotifSize, baseline_config);
  const double baseline_seconds = baseline_timer.ElapsedSeconds();
  FRACTAL_CHECK(baseline.execution.status.ok()) << baseline.execution.status;
  const uint64_t worker1_units = Worker1Units(baseline.execution.telemetry);
  std::printf("graph: %s, 2 workers x 2 cores\n",
              graph.graph().DebugString().c_str());
  std::printf("fault-free: %s, worker 1 consumes %llu work units\n",
              bench::Secs(baseline_seconds).c_str(),
              (unsigned long long)worker1_units);

  std::printf("\n%-18s | %10s | %10s | %10s | %10s | %6s | %6s | %5s\n",
              "crash point", "scratch", "salvage", "re-run u", "replay u",
              "ratio", "budget", "exact");
  bool all_exact = true;
  double worst_recovery_seconds = 0;
  double ratio_at_50 = 1.0;
  double worst_budget_ratio = 0;
  struct Series {
    std::string name;
    double value;
  };
  std::vector<Series> series;
  for (const uint32_t percent : {25u, 50u, 75u}) {
    const uint64_t crash_after =
        std::max<uint64_t>(1, worker1_units * percent / 100);

    // From-scratch recovery (no salvage-pass budget): the successful
    // attempt re-enumerates every unit of the step on the survivor.
    ExecutionConfig scratch_config = RecoveryCluster();
    scratch_config.fault_plan = FaultPlan().CrashWorker(1, crash_after);
    scratch_config.retry.max_salvage_passes = 0;
    WallTimer scratch_timer;
    const MotifsResult scratch = CountMotifs(graph, kMotifSize, scratch_config);
    const double scratch_seconds = scratch_timer.ElapsedSeconds();
    FRACTAL_CHECK(scratch.execution.status.ok()) << scratch.execution.status;
    FRACTAL_CHECK(scratch.execution.steps_retried == 1)
        << "scratch run at " << percent << "% did not crash exactly once";
    FRACTAL_CHECK(scratch.execution.salvage_passes == 0);
    uint64_t scratch_units = 0;
    for (const StepTelemetry& step : scratch.execution.telemetry.steps) {
      scratch_units += step.TotalWorkUnits();
    }

    // Default recovery salvages: only worker 1's unfinished tasks are
    // replayed.
    ExecutionConfig salvage_config = RecoveryCluster();
    salvage_config.fault_plan = FaultPlan().CrashWorker(1, crash_after);
    WallTimer salvage_timer;
    const MotifsResult salvaged =
        CountMotifs(graph, kMotifSize, salvage_config);
    const double salvage_seconds = salvage_timer.ElapsedSeconds();
    FRACTAL_CHECK(salvaged.execution.status.ok())
        << salvaged.execution.status;
    FRACTAL_CHECK(salvaged.execution.steps_retried == 1)
        << "salvage run at " << percent << "% did not crash exactly once";
    FRACTAL_CHECK(salvaged.execution.salvage_passes == 1);

    worst_recovery_seconds = std::max(
        {worst_recovery_seconds, scratch_seconds, salvage_seconds});
    const bool exact = scratch.total == baseline.total &&
                       scratch.counts == baseline.counts &&
                       salvaged.total == baseline.total &&
                       salvaged.counts == baseline.counts;
    all_exact = all_exact && exact;
    const double ratio =
        scratch_units > 0
            ? static_cast<double>(salvaged.execution.units_replayed) /
                  static_cast<double>(scratch_units)
            : 0.0;
    if (percent == 50) ratio_at_50 = ratio;
    // Worker 1 owns a small slice of the step (PartitionRoots), so the
    // scratch ratio stays small even if salvage replayed all of worker 1's
    // work; the replay over worker 1's own budget measures the salvage.
    const double budget_ratio =
        static_cast<double>(salvaged.execution.units_replayed) /
        static_cast<double>(std::max<uint64_t>(1, worker1_units));
    worst_budget_ratio = std::max(worst_budget_ratio, budget_ratio);
    series.push_back(
        {StrFormat("Recovery/replay_ratio/%u", percent), ratio});
    series.push_back(
        {StrFormat("Recovery/budget_ratio/%u", percent), budget_ratio});
    std::printf("%-18s | %s | %s | %10llu | %10llu | %5.3fx | %5.3fx | %5s\n",
                StrFormat("crash @ %u%% (%llu)", percent,
                          (unsigned long long)crash_after)
                    .c_str(),
                bench::Secs(scratch_seconds).c_str(),
                bench::Secs(salvage_seconds).c_str(),
                (unsigned long long)scratch_units,
                (unsigned long long)salvaged.execution.units_replayed, ratio,
                budget_ratio, exact ? "yes" : "NO");
  }

  // --- 2. steal-deadline overhead on the fault-free hot path -------------
  auto timed_run = [&](int64_t timeout_micros) {
    ExecutionConfig config = BenchCluster();
    config.network.request_timeout_micros = timeout_micros;
    double runs[3];
    for (double& r : runs) {
      WallTimer timer;
      const MotifsResult result = CountMotifs(graph, kMotifSize, config);
      r = timer.ElapsedSeconds();
      FRACTAL_CHECK(result.execution.status.ok()) << result.execution.status;
      if (result.total != baseline.total) return -1.0;  // exactness guard
    }
    return MedianOf3(runs[0], runs[1], runs[2]);
  };
  const double untimed_seconds = timed_run(0);
  const double deadline_seconds = timed_run(50000);
  const double overhead =
      untimed_seconds > 0 ? deadline_seconds / untimed_seconds - 1.0 : 0.0;
  std::printf("\nsteal waits untimed (pre-resilience): %s\n",
              bench::Secs(untimed_seconds).c_str());
  std::printf("steal waits with 50ms deadline:       %s  (%+.1f%%)\n",
              bench::Secs(deadline_seconds).c_str(), overhead * 100);

  bench::Claim(
      "recovery keeps results exact at any crash point — from scratch or by "
      "salvaging the ledger — salvage replays a fraction of the from-scratch "
      "re-execution, and deadline bookkeeping is free when no fault fires");
  bench::Verdict(all_exact,
                 "recovered counts bit-identical to fault-free baseline at "
                 "25/50/75% crash points, salvaged and from scratch");
  bench::Verdict(
      ratio_at_50 < 0.6,
      StrFormat("salvage replays %.3fx the from-scratch re-execution units "
                "at the 50%% crash point (< 0.6x bound)",
                ratio_at_50));
  bench::Verdict(
      worst_budget_ratio < 1.0,
      StrFormat("salvage replays at most %.3fx worker 1's own fault-free "
                "budget at any crash point (< 1.0x: never its whole budget)",
                worst_budget_ratio));
  bench::Verdict(
      worst_recovery_seconds < 4 * baseline_seconds + 1.0,
      StrFormat("worst recovery %.3fs vs baseline %.3fs (abandon + degraded "
                "re-run, no restart-from-zero of prior steps)",
                worst_recovery_seconds, baseline_seconds));
  bench::Verdict(
      untimed_seconds > 0 && overhead < 0.25,
      StrFormat("deadline overhead on fault-free path: %+.1f%%", overhead * 100));

  if (!recovery_out.empty()) {
    // Hand-written google-benchmark JSON over the deterministic work-unit
    // model (not wall time) so tools/bench_compare.py can gate the replay
    // ratios; the synthetic context pins host matching (strict gate) since
    // unit counts do not depend on the machine.
    FILE* f = std::fopen(recovery_out.c_str(), "w");
    FRACTAL_CHECK(f != nullptr) << "cannot write " << recovery_out;
    std::fprintf(f,
                 "{\n  \"context\": {\"host_name\": \"work-unit-model\", "
                 "\"mhz_per_cpu\": 0, \"num_cpus\": 0},\n"
                 "  \"benchmarks\": [\n");
    for (size_t i = 0; i < series.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"real_time\": %.6f, "
                   "\"cpu_time\": %.6f, \"time_unit\": \"ratio\", "
                   "\"iterations\": 1}%s\n",
                   series[i].name.c_str(), series[i].value, series[i].value,
                   i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("recovery series written to %s\n", recovery_out.c_str());
  }
  return 0;
}
