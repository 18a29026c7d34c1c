// Worker: one simulated worker process of the cluster runtime (paper §4,
// Fig. 6). A Worker owns `C` long-lived execution threads ("cores") plus —
// when external stealing is enabled — one steal-service thread answering
// WS_ext requests from other workers. Threads are created once, park on the
// cluster's condition variable between fractal steps, and are reused across
// steps and across fractoid executions.
//
// The runtime layer is application-agnostic: what a step actually *does*
// with an extension is supplied by a StepTask (implemented by the core
// executor), while this layer owns thread lifecycle, the contiguous
// root-extension partitioning, the WS_int/WS_ext stealing hierarchy,
// crash injection, and per-thread telemetry.
//
// Locking: Worker itself holds no locks. Its threads acquire the cluster's
// park/wake mutex (Cluster::mu), the enumerators' steal mutexes
// (SubgraphEnumerator::mu), and — via the message bus — the inbox/request
// mutexes, always as leaves or in the documented hierarchy (DESIGN.md
// "Lock hierarchy"). ThreadContext is single-owner state: only its
// execution thread mutates it while a step runs, and the cluster reads it
// at the step barrier (the barrier is the happens-before edge).
#ifndef FRACTAL_RUNTIME_WORKER_H_
#define FRACTAL_RUNTIME_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "enumerate/enumerator.h"
#include "runtime/fault.h"
#include "runtime/telemetry.h"
#include "util/hot_annotations.h"
#include "util/random.h"
#include "util/timer.h"

namespace fractal {

class Cluster;
class LineageLedger;

/// Cache-line size the runtime pads thread-owned hot state to.
inline constexpr size_t kCacheLineBytes = 64;

/// Shared state of one running step. Owned by the Cluster and reset before
/// each step. Fault hooks route through `injector` (runtime/fault.h); the
/// null check is the entire disabled-path cost on the work-unit hot path.
struct StepControl {
  /// Threads still producing work. Idle threads RMW it on every steal
  /// attempt, so it gets a cache line of its own: the read-only fields below
  /// are loaded once per work unit by every busy thread.
  alignas(kCacheLineBytes) std::atomic<uint64_t> working{0};
  /// Fault hooks of the step; null => faults disabled. Raw pointer is safe
  /// here: execution threads only touch it between the step-generation
  /// bump and the barrier, strictly inside RunStep (the bus keeps a
  /// shared_ptr for its unbounded service-thread tail).
  alignas(kCacheLineBytes) FaultInjector* injector = nullptr;
  /// Cancel flag of the step's query (QueryControl::cancel_requested), or
  /// null when the step runs without a query. Polled once per work unit —
  /// one relaxed load, the same hot-path budget as the injector check.
  /// Same lifetime argument as `injector`: only touched strictly inside
  /// RunStep, whose caller owns the QueryControl.
  const std::atomic<bool>* cancel = nullptr;
  WallTimer timer;  // restarted at step start; telemetry timestamps

  /// Termination protocol of the steal loop: a thread holds a `working`
  /// reference while it may still produce work, and the step is over once
  /// the count reaches zero. Shared by every thread of the step by design.
  FRACTAL_HOT void EnterWorking() {
    FRACTAL_HOT_ESCAPE("steal-loop termination count: once per steal "
                       "attempt, never per work unit");
    working.fetch_add(1, std::memory_order_acq_rel);
  }
  FRACTAL_HOT void LeaveWorking() {
    FRACTAL_HOT_ESCAPE("steal-loop termination count: once per steal "
                       "attempt, never per work unit");
    working.fetch_sub(1, std::memory_order_acq_rel);
  }
};

/// Per-victim responsiveness tracking for WS_ext (one slot per victim,
/// per requesting worker): consecutive steal-RPC timeouts accrue until the
/// victim is marked suspect and skipped for the rest of the step
/// (NetworkConfig::suspect_after_timeouts). Reset at every step start.
struct VictimHealth {
  std::atomic<uint32_t> consecutive_timeouts{0};
  std::atomic<bool> suspect{false};
};

/// Per-execution-thread runtime state, owned by a Worker and persistent
/// across steps. The enumeration frames (one SubgraphEnumerator per
/// extension level) live here because the stealing hierarchy scans them;
/// everything application-specific stays inside the StepTask, keyed by
/// `core_id`.
///
/// Hot-path rule (DESIGN.md §6): the work-unit loop writes only lines this
/// thread owns. `stats` starts a cache line of its own (sibling thieves
/// read `frames` above it), and the live unit count sits alone on the last
/// line; the cluster reads both, the slot mid-step and the stats at the
/// barrier.
struct ThreadContext {
  uint32_t worker_id = 0;
  uint32_t core_id = 0;     // global thread id
  uint32_t local_core = 0;  // index within the worker

  /// Enumeration frames by E-depth; sized (grow-only) per step.
  std::vector<std::unique_ptr<SubgraphEnumerator>> frames;

  /// Telemetry of the current step; reset at step start, harvested by the
  /// cluster at the step barrier.
  alignas(kCacheLineBytes) ThreadStats stats;

  /// Busy-time accumulator: only time spent draining frames or processing
  /// stolen work counts (idle backoff sleeps do not).
  double busy_seconds = 0;

  /// Valid for the duration of a step.
  StepControl* control = nullptr;

  /// Deterministic per-thread stream for steal-retry backoff jitter.
  SplitMix64 jitter{0};

  /// Lineage ledger of the current step, null unless the executor runs the
  /// step in salvage retry mode (runtime/lineage.h). Set/cleared alongside
  /// `control`; the null check is the entire disabled-path cost.
  LineageLedger* lineage = nullptr;

  /// Counts one consumed extension and runs the fault hook. Returns false
  /// once this thread's worker has (simulated-)crashed: the thread unwinds,
  /// dropping its in-flight state (including thread-local aggregation
  /// accumulators), while the surviving workers drain their own frames to
  /// the barrier — the step is then re-executed from scratch. With no
  /// injector armed the hook costs a single predictable-branch load.
  ///
  /// The count goes to thread-owned memory only: `stats` (credited to
  /// "runtime.work_units" at the step barrier) and the live slot, which is
  /// advanced by a relaxed load and store rather than an RMW since this
  /// thread is its only writer.
  FRACTAL_HOT bool ConsumeWorkUnit() {
    ++stats.work_units;
    live_units.store(live_units.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    // Cooperative cancellation (DESIGN.md §12): a false return unwinds the
    // enumeration exactly like a crash — frames deactivate on the way out
    // and the thread reaches the step barrier within one work unit.
    const std::atomic<bool>* cancel = control->cancel;
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    FaultInjector* injector = control->injector;
    if (injector == nullptr) return true;
    FRACTAL_HOT_ESCAPE("fault hooks run only under a FaultPlan; their "
                       "trigger counters are shared by design");
    return injector->OnWorkUnit(worker_id);
  }

  /// Work units this thread consumed across all steps: the live, mid-step
  /// view behind Worker::work_units (progress sampler, /statusz,
  /// runtime.worker_units.<w>). Written only by ConsumeWorkUnit on this
  /// thread; on a cache line of its own so samplers never slow the writer.
  alignas(kCacheLineBytes) std::atomic<uint64_t> live_units{0};
};

/// What one fractal step does with the work the runtime hands it. The core
/// executor implements this per step; the runtime only sees extensions,
/// frames, and stolen (prefix, extension) pairs.
class StepTask {
 public:
  virtual ~StepTask() = default;

  /// Drains `roots` — the thread's initial contiguous partition of the root
  /// extensions — through the step pipeline, refilling `t.frames` level by
  /// level (Algorithm 1).
  virtual void DrainRoots(ThreadContext& t, std::vector<uint32_t> roots) = 0;

  /// Processes one stolen unit of work on thread `t`.
  virtual void ProcessStolen(ThreadContext& t,
                             const SubgraphEnumerator::StolenWork& work) = 0;

  /// Called once per thread after its steal loop ends: flush per-thread
  /// counters (e.g. extension tests) into `t.stats`.
  virtual void FinishThread(ThreadContext& t) = 0;
};

/// One simulated worker process: `C` persistent execution threads and the
/// per-worker steal service. Constructed and owned by Cluster.
class Worker {
 public:
  Worker(Cluster* cluster, uint32_t worker_id);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Spawns the execution threads (and the steal-service thread when the
  /// cluster has a message bus). Called once by the Cluster constructor.
  void Start();

  /// Joins all threads. The cluster must have signalled shutdown (and shut
  /// the bus down) first.
  void Join();

  ThreadContext& thread(uint32_t local_core) { return *threads_[local_core]; }
  uint32_t num_threads() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Work units consumed by this worker across all steps: the sum of its
  /// threads' live slots, so it advances mid-step (the per-worker analogue
  /// of obs::WorkUnitsCounter, which is credited only at step barriers).
  uint64_t work_units() const;

 private:
  friend class Cluster;

  /// Park/execute loop of one execution thread: waits for a step
  /// submission, runs it, signals the barrier, parks again.
  void ThreadLoop(ThreadContext& t);

  /// Executes the current step on thread `t`: drain the initial partition,
  /// then steal until the step has no work left anywhere (paper §4.2).
  /// Hot-path root: everything under it except the audited per-step setup
  /// and the network path runs per work unit.
  FRACTAL_HOT void RunStepOnThread(ThreadContext& t);

  /// WS_int: claims one extension from a sibling thread of this worker,
  /// shallowest frames first (they hold the largest pieces of work). The
  /// Claim* calls fill a caller-owned StolenWork (false == no work found) so
  /// the steal loop reuses one prefix buffer across all its attempts.
  FRACTAL_HOT bool ClaimInternalWork(ThreadContext& t,
                                     SubgraphEnumerator::StolenWork* out);

  /// WS_ext: requests work from the other workers through the message bus,
  /// skipping dead/crashed/suspect victims, retrying timed-out victims with
  /// exponential backoff + jitter, and accruing per-victim timeout health.
  /// Charges the simulated network cost and records shipped bytes.
  bool ClaimExternalWork(ThreadContext& t,
                         SubgraphEnumerator::StolenWork* out);

  /// Resets per-step victim-health state; called by RunStep while all
  /// threads are parked.
  void ResetStepHealth();

  /// Steal-service side of WS_ext: answers requests from other workers by
  /// claiming work from this worker's own frames.
  void StealServiceLoop();
  FRACTAL_HOT bool ClaimLocalWork(SubgraphEnumerator::StolenWork* out);

  Cluster* cluster_;
  uint32_t worker_id_;
  /// One slot per potential victim (indexed by worker id).
  std::vector<VictimHealth> victim_health_;
  std::vector<std::unique_ptr<ThreadContext>> threads_;
  std::vector<std::thread> exec_threads_;
  std::thread service_thread_;
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_WORKER_H_
