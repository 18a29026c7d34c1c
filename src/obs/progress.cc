#include "obs/progress.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/logging.h"

namespace fractal {
namespace obs {

namespace {

uint64_t Sum(const std::vector<uint64_t>& values) {
  return std::accumulate(values.begin(), values.end(), uint64_t{0});
}

}  // namespace

ProgressSampler::ProgressSampler(WorkerUnitsFn worker_units)
    : worker_units_(std::move(worker_units)) {
  last_internal_ = InternalStealsCounter().Value();
  last_external_ = ExternalStealsCounter().Value();
  last_bytes_ = BytesShippedCounter().Value();
  if (worker_units_) {
    worker_units_(&last_worker_units_);
    last_work_ = Sum(last_worker_units_);
  } else {
    last_work_ = WorkUnitsCounter().Value();
  }
}

ProgressSnapshot ProgressSampler::Sample() {
  ProgressSnapshot snapshot;
  const double now_seconds = timer_.ElapsedSeconds();
  snapshot.interval_seconds = std::max(now_seconds - last_seconds_, 1e-9);
  // The per-worker slots advance per work unit; "runtime.work_units" only
  // at step barriers, so it is the fallback for samplers without a source.
  if (worker_units_) worker_units_(&worker_units_now_);
  snapshot.work_units =
      worker_units_ ? Sum(worker_units_now_) : WorkUnitsCounter().Value();
  snapshot.work_units_delta = snapshot.work_units - last_work_;
  snapshot.units_per_sec = static_cast<uint64_t>(
      static_cast<double>(snapshot.work_units_delta) /
      snapshot.interval_seconds);
  const uint64_t internal = InternalStealsCounter().Value();
  const uint64_t external = ExternalStealsCounter().Value();
  const uint64_t bytes = BytesShippedCounter().Value();
  snapshot.internal_steals_delta = internal - last_internal_;
  snapshot.external_steals_delta = external - last_external_;
  snapshot.bytes_shipped_delta = bytes - last_bytes_;
  if (worker_units_) {
    last_worker_units_.resize(worker_units_now_.size(), 0);
    snapshot.worker_units_delta.resize(worker_units_now_.size(), 0);
    for (size_t w = 0; w < worker_units_now_.size(); ++w) {
      snapshot.worker_units_delta[w] =
          worker_units_now_[w] - last_worker_units_[w];
      WorkerUnitsGauge(static_cast<uint32_t>(w))
          .Set(static_cast<int64_t>(snapshot.worker_units_delta[w]));
    }
    std::swap(last_worker_units_, worker_units_now_);
  }
  UnitsPerSecGauge().Set(static_cast<int64_t>(snapshot.units_per_sec));
  last_work_ = snapshot.work_units;
  last_internal_ = internal;
  last_external_ = external;
  last_bytes_ = bytes;
  last_seconds_ = now_seconds;
  return snapshot;
}

StepProgressReporter::StepProgressReporter(int64_t interval_ms,
                                           WorkerUnitsFn worker_units) {
  thread_ = std::thread(
      [this, interval_ms, worker_units = std::move(worker_units)]() mutable {
        Loop(std::max<int64_t>(1, interval_ms), std::move(worker_units));
      });
}

StepProgressReporter::~StepProgressReporter() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  thread_.join();
}

void StepProgressReporter::Loop(int64_t interval_ms,
                                WorkerUnitsFn worker_units) {
  Profiler::Get().RegisterCurrentThread("obs/progress");
  ProgressSampler sampler(std::move(worker_units));
  MutexLock lock(mu_);
  while (!stop_) {
    if (cv_.WaitFor(mu_, interval_ms)) continue;  // notified: re-check stop_
    if (stop_) break;
    const ProgressSnapshot snapshot = sampler.Sample();
    // Formatted into a stack buffer and emitted through the allocation-free
    // LogLine path: the streaming FRACTAL_LOG builds an ostringstream per
    // statement, which put periodic heap churn on a step-lifetime thread.
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "step progress: +%" PRIu64 " work units (%" PRIu64 "/s), +%" PRIu64
        " int steals, +%" PRIu64 " ext steals, +%" PRIu64 " bytes shipped",
        snapshot.work_units_delta, snapshot.units_per_sec,
        snapshot.internal_steals_delta, snapshot.external_steals_delta,
        snapshot.bytes_shipped_delta);
    FRACTAL_LOG_LINE(Info, line);
  }
}

}  // namespace obs
}  // namespace fractal
