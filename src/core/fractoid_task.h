// FractoidStepTask: the application side of one fractal step, plugged into
// the runtime's Cluster/Worker layer through the StepTask interface.
// Implements Algorithm 1 — the recursive DFS over subgraph enumerators, one
// enumerator per extension level, reused across siblings — plus the
// primitive pipeline (expand / filter / aggregation-filter / aggregate) and
// the thread-local aggregation accumulators that are merged at the step
// barrier. Thread lifecycle, partitioning, and stealing live in
// `runtime/cluster.*` / `runtime/worker.*`, not here.
#ifndef FRACTAL_CORE_FRACTOID_TASK_H_
#define FRACTAL_CORE_FRACTOID_TASK_H_

#include <memory>
#include <vector>

#include "core/computation.h"
#include "core/executor.h"
#include "core/fractoid.h"
#include "core/step.h"
#include "runtime/worker.h"
#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {

class FractoidStepTask : public StepTask {
 public:
  /// Prepares one step execution attempt across `total_threads` threads.
  /// `completed[i]` is the result of workflow aggregation primitive i (or
  /// null); `sink` is the optional streaming output of the final step.
  FractoidStepTask(const Fractoid& fractoid, const StepPlan& plan,
                   bool is_final, const ExecutionConfig& config,
                   uint32_t total_threads, const SubgraphSink* sink,
                   std::vector<const AggregationStorageBase*> completed);
  ~FractoidStepTask() override;

  /// Number of E primitives in the step (the frame-stack depth).
  uint32_t num_levels() const { return num_levels_; }

  /// Aggregation indices this step computes.
  const std::vector<uint32_t>& new_aggregates() const {
    return new_aggregates_;
  }

  // --- StepTask interface (called by the runtime on its threads) ----------
  FRACTAL_HOT void DrainRoots(ThreadContext& t,
                              std::vector<uint32_t> roots) override;
  FRACTAL_HOT void ProcessStolen(
      ThreadContext& t, const SubgraphEnumerator::StolenWork& work) override;
  void FinishThread(ThreadContext& t) override;

  /// Everything the step produced besides telemetry, merged across threads.
  /// Only valid after the step barrier (Cluster::RunStep returned).
  struct Output {
    uint64_t subgraph_count = 0;
    std::vector<Subgraph> collected;
    uint64_t peak_state_bytes = 0;
    std::vector<std::shared_ptr<AggregationStorageBase>> merged;  // by slot
  };
  Output MergeOutputs();

 private:
  /// Application state of one execution thread for this step attempt.
  struct CoreState {
    Subgraph subgraph;
    std::unique_ptr<Computation> computation;
    // Expansion buffers come from the computation's ScratchArena (leased in
    // Process, recycled through SubgraphEnumerator::Refill's swap), so the
    // DFS performs no per-level heap allocation in steady state.
    std::vector<uint64_t> frame_bytes;  // per E-depth

    // Thread-local accumulators for the step's new aggregations, indexed
    // by storage slot (see storage_slots_).
    std::vector<std::unique_ptr<AggregationStorageBase>> storages;

    uint64_t local_count = 0;  // subgraphs reaching the end of a final step
    std::vector<Subgraph> collected;
    uint64_t state_bytes = 0;
    uint64_t peak_state_bytes = 0;

    // Task-scoped double buffers, used only with lineage tracking
    // (ThreadContext::lineage != null): one fractoid task's aggregation /
    // count / collection output is staged here and folded into the
    // committed fields above by CommitTask, immediately before the ledger
    // completion stamp. The committed state therefore contains exactly the
    // watermarked tasks, so a salvage pass can retain it verbatim while an
    // uncommitted task's scratch is dropped with DiscardTaskScratch.
    std::vector<std::unique_ptr<AggregationStorageBase>> task_storages;
    uint64_t task_count = 0;
    std::vector<Subgraph> task_collected;
    // Extension tests already flushed into per-step stats by FinishThread.
    // Stats must carry the per-attempt delta because CoreStates (and their
    // Computations) are retained across salvage passes of one task.
    uint64_t tests_flushed = 0;
  };

  /// Installs `extensions` in `frame` and tallies the batch size in the
  /// thread's ExtensionContext ("enumerate.batch_size", flushed by
  /// FinishThread).
  FRACTAL_HOT static void RefillFrame(CoreState& s, SubgraphEnumerator& frame,
                                      uint32_t primitive_index,
                                      std::vector<uint32_t>&& extensions);
  FRACTAL_HOT void DrainFrame(ThreadContext& t, CoreState& s,
                              SubgraphEnumerator& frame);
  FRACTAL_HOT void Process(ThreadContext& t, CoreState& s, uint32_t index);
  FRACTAL_HOT void SinkVisit(ThreadContext& t, CoreState& s);

  /// DrainRoots with lineage tracking: one ledger task per root extension,
  /// committed (or discarded) at its subtree boundary. On a salvage pass
  /// the roots are replay indices routed through ProcessReplayRoot.
  FRACTAL_HOT void DrainRootsTracked(ThreadContext& t, CoreState& s,
                                     std::vector<uint32_t> roots);
  /// Re-executes one salvaged descriptor (LineageLedger::replay_root) as a
  /// tracked task. The descriptor's own (prefix, extension) is applied
  /// directly, bypassing the exclusion check — it IS the replayed work.
  FRACTAL_HOT void ProcessReplayRoot(ThreadContext& t, CoreState& s,
                                     uint32_t replay_index, uint64_t task_id);
  /// Folds the task scratch into the committed state, then stamps the
  /// ledger: the completion watermark is written only after the results it
  /// covers are durable in this thread's committed CoreState.
  void CommitTask(ThreadContext& t, CoreState& s, uint64_t task_id,
                  uint64_t units_before);
  /// Drops the uncommitted task scratch (this worker crashed mid-task).
  static void DiscardTaskScratch(CoreState& s);

  /// Mode for the per-extension AllocGuard scope: the global mode once the
  /// thread has consumed its per-step warm-up (scratch pools and recycled
  /// buffers start cold every step attempt), kOff before that.
  FRACTAL_HOT static AllocGuard::Mode GuardModeFor(const ThreadContext& t) {
    const AllocGuard::Mode mode = AllocGuard::GlobalMode();
    if (mode == AllocGuard::Mode::kOff) return mode;
    return t.stats.work_units > AllocGuard::warmup_units()
               ? mode
               : AllocGuard::Mode::kOff;
  }

  const Fractoid& fractoid_;
  const Graph& graph_;
  const ExtensionStrategy& strategy_;
  const StepPlan plan_;
  const bool is_final_;
  const ExecutionConfig& config_;
  const SubgraphSink* sink_;  // optional streaming output (final step only)
  // completed_[i] = result of workflow aggregation primitive i (or null).
  std::vector<const AggregationStorageBase*> completed_;

  uint32_t num_levels_ = 0;
  std::vector<int32_t> storage_slots_;
  std::vector<uint32_t> new_aggregates_;

  std::vector<std::unique_ptr<CoreState>> states_;  // by global core id
};

}  // namespace fractal

#endif  // FRACTAL_CORE_FRACTOID_TASK_H_
