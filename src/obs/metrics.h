// Process-wide metrics registry: named counters, gauges, and log-scale
// (power-of-two) bucketed histograms, with a text and a JSON dump. Unlike
// tracing (obs/trace.h), metrics are always on: handles are plain atomics
// and one update costs a relaxed fetch_add. That RMW lands on a cache line
// every thread writes, so the DFS inner loop never touches these directly
// (DESIGN.md §6): it counts into plain per-thread fields (LocalHistogram
// below, ThreadStats, ExtensionContext) that are folded into the registry
// once per thread per step, before the step barrier.
//
// Lookup is by name and locks the registry, so call sites cache the handle:
//
//   static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter("x");
//   c.Add(1);
//
// Handles are never invalidated (the registry leaks; metric objects are
// node-allocated). Well-known runtime counters used by both the worker
// instrumentation and the step-progress reporter are exposed as accessors
// at the bottom so both sides agree on the names — the barrier-aggregated
// StepTelemetry reports the same quantities per step, these accumulate
// them process-wide and live (sampleable mid-step).
#ifndef FRACTAL_OBS_METRICS_H_
#define FRACTAL_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fractal {
namespace obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-scale histogram: bucket 0 holds the value 0, bucket i (i >= 1) holds
/// values in [2^(i-1), 2^i - 1]. 65 buckets cover the full uint64 range, so
/// Record never clips. Concurrent Record calls are lock-free.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  static size_t BucketIndex(uint64_t value) {
    return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  }
  /// Smallest value landing in bucket `i`.
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }
  /// Largest value landing in bucket `i`.
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }
  /// Lower bound of the bucket containing the p-th percentile (p in
  /// [0,100]); approximate by construction (bucket resolution).
  uint64_t ApproxPercentile(double p) const;

 private:
  friend class LocalHistogram;

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Single-owner twin of Histogram with the same buckets: Record is three
/// plain increments on the owner's own storage. Hot loops record here and
/// fold the tally into a shared Histogram at a sync point (FlushInto).
class LocalHistogram {
 public:
  void Record(uint64_t value) {
    ++buckets_[Histogram::BucketIndex(value)];
    ++count_;
    sum_ += value;
  }

  uint64_t Count() const { return count_; }

  /// Adds everything recorded since the last flush to `target` (one RMW
  /// per non-empty bucket) and resets this tally to empty.
  void FlushInto(Histogram& target);

 private:
  uint64_t buckets_[Histogram::kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Name -> metric registry. Get* creates on first use; returned references
/// are stable for the process lifetime. `MetricsRegistry::mu` is a leaf
/// lock (DESIGN.md §5): held only for the map lookup, never while
/// acquiring anything else.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter& GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) EXCLUDES(mu_);

  /// Human-readable dump, one metric per line, sorted by name.
  std::string DumpText() const EXCLUDES(mu_);
  /// {"counters":{...},"gauges":{...},"histograms":{...}}; histogram
  /// buckets are keyed by their lower bound and only nonzero ones appear.
  std::string DumpJson() const EXCLUDES(mu_);
  /// Prometheus text exposition format (served at /metricsz): names are
  /// sanitized (dots -> underscores) under a `fractal_` prefix, counters
  /// get the conventional `_total` suffix, histograms render as cumulative
  /// `_bucket{le="..."}` series (power-of-two upper bounds; only buckets
  /// with mass, plus `+Inf`) with `_sum`/`_count`, and p50/p90/p99 from
  /// ApproxPercentile appear as companion `_p50`/`_p90`/`_p99` gauges.
  std::string DumpPrometheus() const EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_{"MetricsRegistry::mu"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

// --- Well-known runtime metrics -------------------------------------------
// Cumulative across steps and executions; the per-step barrier snapshot of
// the same quantities is StepTelemetry (runtime/telemetry.h).

/// Extensions consumed and processed ("runtime.work_units"), credited at
/// each step barrier. The live mid-step view is the per-thread slots behind
/// Worker::work_units.
Counter& WorkUnitsCounter();
/// Successful WS_int claims ("runtime.steals_internal").
Counter& InternalStealsCounter();
/// Successful WS_ext claims ("runtime.steals_external").
Counter& ExternalStealsCounter();
/// Serialized bytes received via WS_ext ("runtime.bytes_shipped").
Counter& BytesShippedCounter();
/// Extension candidate tests, credited at the step barrier
/// ("runtime.extension_tests", the paper's EC metric).
Counter& ExtensionTestsCounter();
/// Fractal steps completed ("runtime.steps").
Counter& StepsCounter();
/// Steps executed on a degraded (W−1 or fewer) live-worker subset
/// ("runtime.steps_degraded").
Counter& StepsDegradedCounter();
/// Simulated worker crashes observed at step barriers
/// ("runtime.workers_crashed").
Counter& WorkersCrashedCounter();
/// Work units whose results survived a crash via the lineage ledger and
/// were *not* re-executed ("runtime.units_salvaged").
Counter& UnitsSalvagedCounter();
/// Work units re-executed during salvage replay passes
/// ("runtime.units_replayed").
Counter& UnitsReplayedCounter();
/// Queries accepted by a QueryScheduler ("runtime.queries_admitted").
Counter& QueriesAdmittedCounter();
/// Queries refused with kResourceExhausted because the admission queue was
/// full ("runtime.queries_rejected").
Counter& QueriesRejectedCounter();
/// Queries that resolved kCancelled ("runtime.queries_cancelled").
Counter& QueriesCancelledCounter();
/// Queries that resolved kDeadlineExceeded
/// ("runtime.queries_deadline_exceeded").
Counter& QueriesDeadlineExceededCounter();
/// Queries that resolved OK ("runtime.queries_completed").
Counter& QueriesCompletedCounter();
/// WS_ext steal requests that hit their deadline ("bus.steal_timeouts").
Counter& StealTimeoutsCounter();
/// WS_ext steal requests dropped in flight by fault injection
/// ("bus.requests_dropped").
Counter& DroppedRequestsCounter();
/// Sorted-set kernel invocations (intersections and differences) in the
/// enumeration data plane ("enumerate.intersections"). Enumeration threads
/// count into ExtensionContext::kernels and flush at FinishThread.
Counter& IntersectionKernelsCounter();
/// Kernel invocations that took the galloping path instead of the linear
/// merge ("enumerate.galloped"); flushed like the above.
Counter& GallopedKernelsCounter();
/// ScratchArena buffer acquisitions served from the per-thread pool with no
/// heap allocation ("enumerate.scratch_hits"). Each arena tallies its own
/// and flushes at FinishThread (and on destruction).
Counter& ScratchHitsCounter();
/// ScratchArena buffer acquisitions that had to allocate — should flatline
/// once the DFS reaches steady state ("enumerate.scratch_misses").
Counter& ScratchMissesCounter();

/// Samples captured by the sampling profiler, credited at each
/// Profiler::Stop ("obs.profiler_samples").
Counter& ProfilerSamplesCounter();
/// HTTP requests answered by the exposition server
/// ("obs.exposition_requests").
Counter& ExpositionRequestsCounter();

/// (requester, victim) pairs currently marked suspect by the steal-RPC
/// health tracker; reset to 0 at each step start
/// ("runtime.suspect_victims").
Gauge& SuspectVictimsGauge();
/// 1 while a Cluster step is between submit and barrier, else 0
/// ("runtime.step_active").
Gauge& StepActiveGauge();
/// Approximate bytes held by the current step's lineage ledger, published
/// when a salvage pass is prepared ("runtime.ledger_bytes").
Gauge& LedgerBytesGauge();
/// Number of cluster steps started so far ("runtime.current_step"; a gauge
/// so /statusz shows the step the progress sampler is describing).
Gauge& CurrentStepGauge();
/// Work units per second over the progress sampler's last interval
/// ("runtime.units_per_sec").
Gauge& UnitsPerSecGauge();
/// Work units consumed by worker `w` over the progress sampler's last
/// interval ("runtime.worker_units" with a `.w` suffix, e.g.
/// "runtime.worker_units.3"). Unlike the handles above this takes the
/// registry lock per call — sampler-rate use only.
Gauge& WorkerUnitsGauge(uint32_t worker);
/// Queries currently executing on scheduler driver threads
/// ("runtime.queries_active").
Gauge& QueriesActiveGauge();
/// Queries admitted but not yet started ("runtime.queries_queued").
Gauge& QueriesQueuedGauge();
/// Cumulative work units attained by query `id` ("runtime.query_units"
/// with a `.id` suffix), set at each step barrier. Takes the registry lock
/// per call — barrier-rate use only, like WorkerUnitsGauge.
Gauge& QueryUnitsGauge(uint64_t query_id);

/// WS_ext request round-trip time in microseconds, successful steals only
/// ("bus.steal_rtt_us").
Histogram& StealRttHistogram();
/// Stolen-work serialization time in nanoseconds ("codec.encode_ns").
Histogram& EncodeTimeHistogram();
/// Stolen-work deserialization time in nanoseconds ("codec.decode_ns").
Histogram& DecodeTimeHistogram();
/// Extension batch size per enumerator refill ("enumerate.batch_size"),
/// recorded into ExtensionContext::batch_sizes and flushed at FinishThread.
Histogram& ExtensionBatchHistogram();
/// Steal-retry backoff sleeps in microseconds, one sample per retry
/// ("bus.retry_backoff_us").
Histogram& RetryBackoffHistogram();

}  // namespace obs
}  // namespace fractal

#endif  // FRACTAL_OBS_METRICS_H_
