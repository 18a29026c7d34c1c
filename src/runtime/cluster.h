// Cluster: the persistent simulated cluster of the paper's architecture
// (§4, Fig. 6). A Cluster owns `W` Workers, each with `C` execution threads
// and a steal-service thread, created once and reused across fractal steps
// and across fractoid executions. Steps are submitted through RunStep
// (submit + barrier): between steps every thread parks on a condition
// variable instead of being joined and respawned, which removes the
// per-step thread churn of multi-step workflows (FSM runs one step per
// pattern size, Algorithm 2).
//
// Resilience (DESIGN.md §7): the cluster maintains a live-worker mask.
// Workers marked dead by the executor's retry policy are excluded from root
// partitioning, steal victim selection, and barrier accounting, so a step
// re-executes on the surviving W−1 subset ("degraded re-execution"). The
// from-scratch model of the paper (§4) makes this exact: a failed step is
// discarded wholesale and re-run, so results stay bit-identical.
//
// One Cluster can be shared by many fractoid executions (see
// ExecutionConfig::cluster). Every step belongs to a query: step
// submissions are admitted one at a time through a weighted-fair gate
// (DESIGN.md §12), so concurrent executions interleave at step granularity,
// ordered by start-time-fair virtual time of their QueryControl
// (runtime/query.h). A synchronous execution is a weight-1 query with id 0.
#ifndef FRACTAL_RUNTIME_CLUSTER_H_
#define FRACTAL_RUNTIME_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <functional>
#include <map>

#include "obs/exposition.h"
#include "obs/progress.h"
#include "runtime/fault.h"
#include "runtime/message_bus.h"
#include "runtime/query.h"
#include "runtime/worker.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fractal {

/// Shape and stealing policy of a cluster (paper §4/5.2.2: the WS_int /
/// WS_ext configurations map to the two stealing flags).
struct ClusterOptions {
  /// Simulated worker processes (paper: machines/executors). At most 64
  /// (the live-worker mask is one machine word).
  uint32_t num_workers = 1;
  /// Execution threads ("cores") per worker.
  uint32_t threads_per_worker = 2;

  /// WS_int: stealing between cores of the same worker.
  bool internal_work_stealing = true;
  /// WS_ext: stealing between workers through the message bus. Requires at
  /// least two workers (Cluster::Validate rejects it otherwise; the core
  /// executor normalizes the flag off for single-worker configs).
  bool external_work_stealing = false;

  /// Simulated network parameters for WS_ext, including steal-RPC deadlines
  /// and retry/backoff policy.
  NetworkConfig network;

  /// When > 0, RunStep's barrier wait also wakes every
  /// `progress_interval_ms` while the step is in flight, samples work-unit
  /// throughput and steal rates (obs/progress.h) and logs them.
  int64_t progress_interval_ms = 0;

  /// When >= 0, the cluster starts an embedded exposition server
  /// (obs/exposition.h) on 127.0.0.1:<statusz_port> for its lifetime,
  /// serving /statusz, /metricsz, /tracez, and /profilez. 0 binds an
  /// ephemeral port (read back via Cluster::statusz_port()). Default -1:
  /// no server.
  int statusz_port = -1;
};

class Cluster {
 public:
  /// Checks that `options` describe a constructible cluster: at least one
  /// worker (and at most 64) and one thread per worker, and no external
  /// stealing without a second worker to steal from.
  static Status Validate(const ClusterOptions& options);

  /// Validated construction path: returns an error Status instead of
  /// crashing on bad options.
  static StatusOr<std::unique_ptr<Cluster>> Create(
      const ClusterOptions& options);

  /// Direct construction; `options` must pass Validate (checked).
  explicit Cluster(const ClusterOptions& options);

  /// Stops and joins all worker threads. Any frames still holding state
  /// have been deactivated by the last step's barrier.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Per-step execution parameters that are not part of the task itself.
  struct StepOptions {
    /// Number of E-levels of the step (frame stack depth per thread).
    uint32_t num_levels = 0;
    /// Fault hooks of the step (runtime/fault.h); null disables injection.
    /// Shared ownership: the message bus keeps a reference for straggling
    /// service threads beyond the step barrier.
    std::shared_ptr<FaultInjector> fault_injector;
    /// Lineage ledger recording steal claims and task completions for
    /// partial recovery (runtime/lineage.h); null disables lineage
    /// tracking (the from-scratch retry model). Owned by the executor and
    /// valid across the whole step, including its barrier. RunStep assigns
    /// its tasks to workers from the step's live-mask snapshot
    /// (LineageLedger::AssignOwners).
    LineageLedger* lineage = nullptr;
  };

  struct StepResult {
    /// Set when a worker "crashed" during the step: all step output must be
    /// discarded and the step re-executed (the from-scratch model makes
    /// that recovery trivial). Carries which worker failed, why, and what
    /// the abandoned attempt cost.
    std::optional<StepFailure> failure;
    /// Telemetry of the live workers' threads (dead workers contribute
    /// nothing).
    StepTelemetry telemetry;
    /// Workers that participated in the step (popcount of the live mask).
    uint32_t live_workers = 0;
    /// Set when the step's query was cancelled (or hit its deadline) before
    /// or during the step: the step output is partial and must be
    /// discarded. Callers must check this before `ok()`/telemetry — a
    /// cancelled step may carry empty telemetry (cancelled while queued at
    /// the admission gate) or a torn work count. QueryControl::deadline_hit
    /// distinguishes deadline expiry from an explicit cancel.
    bool cancelled = false;

    bool ok() const { return !failure.has_value(); }
  };

  /// Submits one fractal step and blocks until every live thread of every
  /// live worker has finished it (submit/barrier). `root_extensions` — the
  /// extensions of the empty subgraph — are partitioned contiguously across
  /// the live cores (paper §4: "an initial partition of extensions ...
  /// determined on-the-fly using its unique core identifier"). `query` is
  /// the query the step belongs to (DESIGN.md §12): it orders admission,
  /// workers poll its cancel flag once per work unit, and its deadline
  /// bounds the barrier wait; it must outlive the call. Thread-safe:
  /// concurrent submissions from different executions are admitted one at a
  /// time in weighted-fair order. The result carries the
  /// failure/cancellation record of the step (see StepResult) and must not
  /// be dropped.
  [[nodiscard]] StepResult RunStep(StepTask& task,
                                   std::vector<uint32_t> root_extensions,
                                   QueryControl& query,
                                   const StepOptions& options)
      EXCLUDES(run_mu_, mu_);

  const ClusterOptions& options() const { return options_; }
  uint32_t TotalThreads() const {
    return options_.num_workers * options_.threads_per_worker;
  }
  /// Steps executed since construction (reuse visible to tests/benches).
  uint64_t steps_run() const { return steps_run_.load(); }

  /// Live-worker mask: bit w set means worker w participates in steps.
  /// Mutated between steps by the executor's retry policy (MarkWorkerDead
  /// after a crash, RestoreAllWorkers on reuse); RunStep snapshots it.
  uint64_t live_mask() const {
    return live_mask_.load(std::memory_order_acquire);
  }
  uint32_t num_live_workers() const;
  /// Excludes `worker` from subsequent steps (degraded re-execution). Safe
  /// to call while another query's step is in flight: RunStep snapshots the
  /// mask at admission, so the death takes effect from the next submitted
  /// step.
  void MarkWorkerDead(uint32_t worker);
  /// Re-admits every worker (e.g. when a cluster is reused by a later
  /// execution after a simulated crash).
  void RestoreAllWorkers();

  /// Number of (requester, victim) pairs currently marked suspect by the
  /// steal-RPC health tracker; reset at every step start. Feeds the
  /// runtime.suspect_victims gauge.
  uint64_t suspect_victims() const {
    return suspects_.load(std::memory_order_relaxed);
  }

  /// Cumulative work units per worker (indexed by worker id) since
  /// construction: the sum of each worker's per-thread live slots, so it
  /// advances mid-step. Feeds the progress sampler and /statusz; the
  /// obs::WorkerUnitsFn shape.
  void SampleWorkerUnits(std::vector<uint64_t>* out) const;

  /// Bound port of the embedded exposition server, or -1 when
  /// ClusterOptions::statusz_port was < 0 (or the bind failed — the
  /// cluster still constructs; introspection is never load-bearing).
  int statusz_port() const;

  /// The /statusz page body (exposed for tests; served by the embedded
  /// server). Reads only atomics and the statusz progress sampler, plus any
  /// registered sections (which run under statusz_mu_).
  std::string RenderStatusz();

  /// Registers an extra /statusz section (e.g. the QueryScheduler's
  /// per-query rows). The callback runs under statusz_mu_, so
  /// RemoveStatuszSection blocks until any in-flight render is done —
  /// callbacks must only take locks *below* statusz_mu_ in the DESIGN.md §5
  /// hierarchy. Returns a token for RemoveStatuszSection.
  uint64_t AddStatuszSection(std::function<std::string()> section)
      EXCLUDES(statusz_mu_);
  void RemoveStatuszSection(uint64_t token) EXCLUDES(statusz_mu_);

  /// Wakes admission-gate waiters so a query cancelled while queued
  /// re-checks its cancel flag. Called by the QueryScheduler (or any
  /// QueryHandle) after setting QueryControl::cancel_requested.
  void WakeQueryGate() EXCLUDES(run_mu_);

 private:
  friend class Worker;

  /// Called by workers when a victim crosses the consecutive-timeout
  /// threshold (NetworkConfig::suspect_after_timeouts).
  void NoteSuspectVictim();

  /// Step submission shared with the workers' threads. Written by RunStep
  /// before the wake-up notification; read by execution threads after they
  /// observe the new generation (and by the steal service, causally after
  /// an execution thread's bus request).
  struct StepState {
    StepTask* task = nullptr;
    std::vector<uint32_t> roots;
    uint32_t num_levels = 0;
    /// Snapshot of live_mask_ for this step: threads of non-live workers
    /// skip the step (and its barrier), and victim selection is restricted
    /// to live workers.
    uint64_t live_mask = ~uint64_t{0};
    /// Lineage ledger of the step (StepOptions::lineage); null when the
    /// step runs without lineage tracking.
    LineageLedger* lineage = nullptr;
  };

  /// One waiter at the admission gate. Lives on the RunStep caller's stack;
  /// registered in gate_waiters_ while waiting.
  struct GateTicket {
    QueryControl& query;
    uint64_t seq = 0;    // arrival order, tie-break
    double vtime = 0.0;  // admission key (snapshot under run_mu_)
  };

  /// Blocks until this ticket wins the gate (weighted fair order) and no
  /// step is in flight, then claims the step slot. Returns false if the
  /// ticket's query was cancelled or hit its deadline while waiting — the
  /// step slot is NOT claimed in that case.
  bool AdmitStep(GateTicket& ticket) EXCLUDES(run_mu_);
  /// Releases the step slot, credits `work_units` to the ticket's query
  /// (virtual time, attained-service counters) and wakes gate waiters.
  void ReleaseStep(GateTicket& ticket, uint64_t work_units)
      EXCLUDES(run_mu_);
  /// Next waiter in admission order: smallest virtual time, FIFO on ties.
  const GateTicket* NextGateWaiter() const REQUIRES(run_mu_);
  void RemoveGateWaiter(const GateTicket* ticket) REQUIRES(run_mu_);

  ClusterOptions options_;
  std::unique_ptr<MessageBus> bus_;  // null unless external stealing
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Embedded introspection server (obs/exposition.h); null unless
  /// options_.statusz_port >= 0 and the bind succeeded. Declared after
  /// workers_ so it is destroyed (and its thread joined) before the workers
  /// it reports on — the destructor also resets it explicitly first.
  std::unique_ptr<obs::ExpositionServer> exposition_;
  /// Delta state behind RenderStatusz; guarded by statusz_mu_ since tests
  /// may hit /statusz concurrently with a direct RenderStatusz call.
  /// statusz_mu_ sits above the scheduler/query-handle locks in the §5
  /// hierarchy (registered sections run under it) but below nothing else.
  std::unique_ptr<obs::ProgressSampler> statusz_sampler_
      GUARDED_BY(statusz_mu_);
  /// Extra /statusz sections keyed by registration token (AddStatuszSection).
  std::map<uint64_t, std::function<std::string()>> statusz_sections_
      GUARDED_BY(statusz_mu_);
  uint64_t statusz_section_seq_ GUARDED_BY(statusz_mu_) = 0;
  Mutex statusz_mu_{"Cluster::statusz_mu"};
  std::atomic<uint64_t> steps_run_{0};
  std::atomic<uint64_t> live_mask_{~uint64_t{0}};
  std::atomic<uint64_t> suspects_{0};

  /// The query admission gate (DESIGN.md §12). Outermost lock of the
  /// runtime: acquired before Cluster::mu (lock hierarchy in DESIGN.md §5).
  /// Unlike the pre-scheduler design it is NOT held across the step body —
  /// only around the gate state below, so waiters can be reordered (fair
  /// sharing) and cancelled while queued.
  Mutex run_mu_{"Cluster::run_mu"};
  CondVar gate_cv_;  // step slot freed, or a queued query was cancelled
  /// True from a ticket winning the gate until its ReleaseStep. Replaces
  /// holding run_mu_ across the step: the flag's acquire/release through
  /// run_mu_ is the happens-before edge ordering one step's teardown before
  /// the next step's setup (see step_ below).
  bool step_in_flight_ GUARDED_BY(run_mu_) = false;
  std::vector<const GateTicket*> gate_waiters_ GUARDED_BY(run_mu_);
  uint64_t gate_seq_ GUARDED_BY(run_mu_) = 0;
  /// Monotone floor for arriving queries' virtual times: a newly admitted
  /// query starts at max(own vtime, floor), so an idle query cannot bank
  /// service and then monopolize the gate (start-time fairness).
  double vtime_floor_ GUARDED_BY(run_mu_) = 0.0;

  // Park/wake handshake between RunStep and the execution threads.
  Mutex mu_{"Cluster::mu"};
  CondVar work_cv_;  // new step or shutdown
  CondVar done_cv_;  // all threads finished the step
  uint64_t step_generation_ GUARDED_BY(mu_) = 0;
  /// step_.live_mask of the step at step_generation_, published with the
  /// bump. Threads read it here, under mu_, to decide whether to skip the
  /// step: a dead worker's threads are not counted at the barrier, so they
  /// may wake while the driver is already writing the next step's step_.
  uint64_t generation_live_mask_ GUARDED_BY(mu_) = 0;
  uint32_t threads_remaining_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;

  /// Not mutex-protected: published by RunStep *before* the step-generation
  /// bump under mu_, and only read by worker threads after they observe the
  /// new generation (or, for the steal service, causally after an execution
  /// thread's bus request) — the generation handshake is the happens-before
  /// edge, so these are data-race-free without a guard. Between two RunStep
  /// callers the step_in_flight_ hand-off under run_mu_ orders the previous
  /// step's teardown before the next one's setup.
  StepState step_;
  StepControl control_;
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_CLUSTER_H_
