// Mid-step progress reporting. A ProgressSampler turns the live runtime
// counters (work units, steal counts, shipped bytes) into interval deltas
// and publishes them as gauges (`runtime.units_per_sec`, per-worker
// `runtime.worker_units.<w>`) so every consumer — the periodic log line,
// /statusz, tests — renders the same snapshot from one code path. Work
// units come from the per-worker source (the execution threads' live slots,
// runtime/worker.h): "runtime.work_units" itself is credited only at step
// barriers, so it serves as the total only for samplers without a source.
//
// A StepProgressReporter owns one background thread that drives a sampler
// every interval and logs the result, so a long fractal step shows signs of
// life before the barrier-aggregated StepTelemetry exists. Started by
// Cluster::RunStep when ClusterOptions::progress_interval_ms > 0 (default
// off); the reporter is scoped to the step — construction spawns the
// thread, destruction stops and joins it. `StepProgressReporter::mu` is a
// leaf lock (DESIGN.md §5).
#ifndef FRACTAL_OBS_PROGRESS_H_
#define FRACTAL_OBS_PROGRESS_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace fractal {
namespace obs {

/// One sampling interval's worth of deltas.
struct ProgressSnapshot {
  double interval_seconds = 0;
  uint64_t work_units = 0;        // cumulative, at sample time
  uint64_t work_units_delta = 0;  // over the interval
  uint64_t units_per_sec = 0;
  uint64_t internal_steals_delta = 0;
  uint64_t external_steals_delta = 0;
  uint64_t bytes_shipped_delta = 0;
  /// Per-worker work-unit deltas, indexed by worker id; empty when the
  /// sampler has no per-worker source.
  std::vector<uint64_t> worker_units_delta;
};

/// Fills `*out` (resizing as needed) with cumulative work units per worker,
/// indexed by worker id. Cluster provides one over its workers' counters.
using WorkerUnitsFn = std::function<void(std::vector<uint64_t>* out)>;

/// Stateful delta computer over the process-wide counters. Not thread-safe:
/// each consumer owns its own sampler (deltas are relative to *its* last
/// Sample call). Sample() also publishes UnitsPerSecGauge and the
/// per-worker WorkerUnitsGauge values, last-writer-wins.
class ProgressSampler {
 public:
  explicit ProgressSampler(WorkerUnitsFn worker_units = nullptr);

  /// Computes deltas since the previous Sample() (or construction),
  /// publishes the gauges, and returns the snapshot.
  ProgressSnapshot Sample();

 private:
  WorkerUnitsFn worker_units_;
  WallTimer timer_;
  double last_seconds_ = 0;
  uint64_t last_work_ = 0;
  uint64_t last_internal_ = 0;
  uint64_t last_external_ = 0;
  uint64_t last_bytes_ = 0;
  std::vector<uint64_t> last_worker_units_;
  std::vector<uint64_t> worker_units_now_;
};

class StepProgressReporter {
 public:
  /// Spawns the sampling thread; logs every `interval_ms` milliseconds.
  /// `worker_units` (optional) adds per-worker deltas to the gauges and the
  /// log line.
  explicit StepProgressReporter(int64_t interval_ms,
                                WorkerUnitsFn worker_units = nullptr);

  /// Stops and joins the sampling thread. Emits no final report: the step
  /// barrier's StepTelemetry is the authoritative end-of-step summary.
  ~StepProgressReporter();

  StepProgressReporter(const StepProgressReporter&) = delete;
  StepProgressReporter& operator=(const StepProgressReporter&) = delete;

 private:
  void Loop(int64_t interval_ms, WorkerUnitsFn worker_units);

  Mutex mu_{"StepProgressReporter::mu"};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace fractal

#endif  // FRACTAL_OBS_PROGRESS_H_
