// QueryScheduler: multi-tenant admission and dispatch of fractoid
// executions onto one shared Cluster (DESIGN.md §12).
//
// The scheduler owns a small pool of driver threads (max_active). Each
// driver pops one submitted query at a time and runs its body — an opaque
// `Status(QueryControl&)` callable, typically a core-executor run whose
// steps all belong to that control block (ExecuteFractoidAsync). Interleaving
// between concurrent queries happens *below* the scheduler, at the
// Cluster's weighted-fair step-admission gate: a driver thread per query
// keeps the executor's sequential step loop unchanged while steps of
// different queries alternate on the shared worker threads.
//
// Admission control: at most max_queued submissions may be waiting for a
// driver; Submit returns kResourceExhausted beyond that (backpressure —
// callers back off and resubmit). Cancellation and deadlines are
// cooperative: the flag is polled by worker threads once per work unit, so
// a cancelled query unwinds within one work unit per thread plus one step
// barrier.
//
// Locking (DESIGN.md §5): QueryScheduler::mu is taken below
// Cluster::statusz_mu (the /statusz section callback runs under the
// latter) and above ScheduledQuery::mu; none of them is ever held while
// calling into Cluster::RunStep.
#ifndef FRACTAL_RUNTIME_QUERY_SCHEDULER_H_
#define FRACTAL_RUNTIME_QUERY_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/query.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fractal {

class Cluster;
class QueryScheduler;

/// Joinable/cancellable handle of one submitted query. Shared between the
/// caller and the scheduler; resolves exactly once (including on scheduler
/// shutdown, which cancels outstanding queries). Handles must be joined —
/// or dropped — before the Cluster is destroyed.
class ScheduledQuery {
 public:
  enum class State { kQueued, kRunning, kDone };

  /// Blocks until the query resolves; returns its final Status
  /// (OK, kCancelled, kDeadlineExceeded, or the body's own error).
  Status Join();

  /// Requests cooperative cancellation and wakes the cluster's admission
  /// gate so a queued step re-checks the flag. Idempotent; a query that
  /// already resolved is unaffected.
  void Cancel();

  bool done() const;
  State state() const;
  /// Final status; OK while the query has not resolved yet (check done()).
  Status status() const;

  const QueryControl& control() const { return control_; }
  QueryControl& control() { return control_; }

 private:
  friend class QueryScheduler;

  explicit ScheduledQuery(Cluster* cluster) : cluster_(cluster) {}
  void Resolve(Status status);

  Cluster* const cluster_;
  QueryControl control_;
  /// Leaf lock (taken below QueryScheduler::mu in the §5 hierarchy).
  mutable Mutex mu_{"ScheduledQuery::mu"};
  CondVar cv_;
  State state_ GUARDED_BY(mu_) = State::kQueued;
  Status status_ GUARDED_BY(mu_);
};

struct QuerySchedulerOptions {
  /// Driver threads: upper bound on queries executing concurrently.
  uint32_t max_active = 2;
  /// Admission bound on queries waiting for a driver; Submit returns
  /// kResourceExhausted beyond it.
  uint32_t max_queued = 8;
};

class QueryScheduler {
 public:
  struct Submission {
    std::string name;          // defaults to "query-<id>"
    uint32_t weight = 1;       // fair-share weight (clamped to >= 1)
    int64_t deadline_ms = 0;   // relative deadline from submit; <= 0: none
  };

  /// A query body runs on a scheduler driver thread. It must poll
  /// `control` cooperatively (the core executor does for every step it
  /// submits) and return the query's final status — kCancelled /
  /// kDeadlineExceeded when it observed the flags.
  using QueryBody = std::function<Status(QueryControl&)>;

  /// `cluster` must outlive the scheduler. Registers a per-query /statusz
  /// section on it for the scheduler's lifetime.
  explicit QueryScheduler(Cluster* cluster,
                          const QuerySchedulerOptions& options = {});

  /// Cancels outstanding queries, drains the queue (resolving every handle)
  /// and joins the driver threads.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admits a query, or rejects it with kResourceExhausted when max_queued
  /// submissions are already waiting (backpressure) / kFailedPrecondition
  /// after shutdown began.
  StatusOr<std::shared_ptr<ScheduledQuery>> Submit(Submission submission,
                                                   QueryBody body)
      EXCLUDES(mu_);

  /// Requests cancellation of every queued and running query.
  void CancelAll() EXCLUDES(mu_);

  Cluster* cluster() const { return cluster_; }

  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t cancelled = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t failed = 0;  // resolved with any other non-OK status
  };
  Stats stats() const;

  /// The per-query /statusz section: one row per queued/running query plus
  /// a ring of recently finished ones. Exposed for tests; served through
  /// the cluster's /statusz endpoint.
  std::string RenderStatuszRows() const EXCLUDES(mu_);

 private:
  struct Job {
    std::shared_ptr<ScheduledQuery> query;
    QueryBody body;
  };

  void DriverLoop();
  void FinishQuery(std::shared_ptr<ScheduledQuery> query, Status status)
      EXCLUDES(mu_);

  Cluster* const cluster_;
  const QuerySchedulerOptions options_;
  uint64_t statusz_token_ = 0;

  mutable Mutex mu_{"QueryScheduler::mu"};
  CondVar queue_cv_;  // work queued, or shutdown
  std::deque<Job> queue_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<ScheduledQuery>> active_ GUARDED_BY(mu_);
  /// Recently resolved queries, newest last, for /statusz (bounded ring).
  std::deque<std::shared_ptr<ScheduledQuery>> finished_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> failed_{0};

  std::vector<std::thread> drivers_;
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_QUERY_SCHEDULER_H_
