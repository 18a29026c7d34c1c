// Per-step fractoid lineage ledger (DESIGN.md §11): the bookkeeping that
// turns "retry the whole step" into partial recovery. Every unit of
// top-level work — a root extension of the step's initial partition, or a
// (prefix, extension, primitive_index) descriptor claimed by the steal
// path — is one *task* in the ledger. Tasks are stamped twice:
//
//   * claim: TrySteal/ClaimLocalWork moves exactly the descriptor this
//     ledger needs, so stamping rides the existing claim-after-commit
//     rendezvous (worker.cc). Root claims transfer ownership of an
//     existing record; interior claims mint a new record carrying the
//     encoded descriptor and the victim it was taken from.
//   * complete: when a thread finishes a task's subtree and merges its
//     task-scratch accumulators into the committed per-thread state
//     (FractoidStepTask::CommitTask), the record becomes a durable
//     watermark — the committed state contains exactly the stamped tasks.
//
// On a crash, PrepareSalvage() derives from those stamps (a) the replay
// set — descriptors owned by the crashed worker and never completed — and
// (b) the exclusion set — every subtree claimed *out of* a crashed worker,
// which is either already committed by a survivor or queued as its own
// replay root, and must be skipped when a replay re-enumerates its parent.
// Survivors keep their aggregation state; only the replay set re-executes.
#ifndef FRACTAL_RUNTIME_LINEAGE_H_
#define FRACTAL_RUNTIME_LINEAGE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "enumerate/enumerator.h"
#include "enumerate/subgraph.h"
#include "util/hot_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fractal {

/// Primitive-index sentinel for the frames[0] entries of a salvage pass:
/// the "extension" value is an index into the ledger's replay set, not a
/// graph word. Real primitive indices are bounded by the workflow length,
/// so the sentinel can never collide.
inline constexpr uint32_t kReplayRootPrimitive = 0xffffffffu;

/// Rank of (worker_id, local_core) among the threads of *live* workers.
/// Dead workers' cores are excised from the ranking so a degraded step
/// still covers every root with no holes.
inline uint32_t LiveThreadRank(uint64_t live_mask, uint32_t worker_id,
                               uint32_t local_core,
                               uint32_t threads_per_worker) {
  return static_cast<uint32_t>(std::popcount(
             live_mask & ((uint64_t{1} << worker_id) - 1))) *
             threads_per_worker +
         local_core;
}

/// Contiguous root partition [begin, end) of `total` items owned by live
/// thread `rank` out of `live_threads`. Single source of truth shared by
/// Worker::RunStepOnThread and LineageLedger ownership assignment: the
/// ledger's notion of which worker owns root i must agree bit for bit with
/// the slice that worker's thread actually drains.
struct RootSlice {
  size_t begin;
  size_t end;
};
inline RootSlice PartitionRoots(size_t total, uint32_t rank,
                                uint32_t live_threads) {
  return RootSlice{total * rank / live_threads,
                   total * (rank + 1) / live_threads};
}

/// Lineage ledger for one step of one execution attempt chain. Created by
/// the executor when the execution's fault plan can crash a worker and it
/// has a salvage-pass budget (RetryPolicy::max_salvage_passes > 0),
/// published to
/// worker threads through Cluster::StepState (same happens-before argument
/// as the StepTask pointer: written before the step-generation bump, read
/// after observing the new generation), and retained across salvage passes
/// of the same step together with the FractoidStepTask.
///
/// Thread-safety: record appends and completion stamps take `mu` (a leaf
/// lock, DESIGN.md §5). The attempt-frozen structures — the root map, the
/// replay set, and the exclusion set — are (re)built only between passes on
/// the quiescent driver thread and read lock-free during a pass.
class LineageLedger {
 public:
  /// `victim` value for root records: the initial partition assigns them,
  /// nobody was robbed.
  static constexpr uint32_t kNoVictim = 0xffffffffu;

  LineageLedger() = default;
  LineageLedger(const LineageLedger&) = delete;
  LineageLedger& operator=(const LineageLedger&) = delete;

  /// Driver, once per ledger before the first RunStep: one record per root
  /// extension. Owners are left to AssignOwners.
  void BeginAttempt(const std::vector<uint32_t>& roots);

  /// Cluster::RunStep, after admission and before the workers wake: assigns
  /// each frames[0] task of the coming pass (the roots of the initial
  /// attempt, the replay set of a salvage pass) to the worker whose thread
  /// drains it, by the same live-thread partition over the step's own
  /// live-mask snapshot. Taking the mask there rather than when the ledger
  /// is built keeps the owners right when another query on a shared cluster
  /// marks a worker dead while this one waits at the admission gate.
  void AssignOwners(uint64_t live_mask, uint32_t threads_per_worker);

  /// Steal path, after a successful TrySteal/ClaimLocalWork and before the
  /// descriptor crosses a worker boundary. Root claims (empty prefix at a
  /// root primitive index) transfer ownership of the existing record;
  /// interior claims mint a new record. Sets `work->lineage_id` so the
  /// thief can stamp completion. Allocates (under AllocGuard::Allow) and
  /// locks `mu`: call sites inside FRACTAL_HOT graphs wrap this in a
  /// FRACTAL_HOT_ESCAPE — once per steal, not per work unit.
  void StampClaim(uint32_t victim_worker, uint32_t thief_worker,
                  SubgraphEnumerator::StolenWork* work);

  /// Worker thread, at task commit: the task's subtree is fully enumerated
  /// and its scratch merged into the committed per-thread state. `units` is
  /// the work consumed by the committing thread for this task (telemetry
  /// for runtime.units_salvaged).
  void StampComplete(uint64_t task_id, uint64_t units);

  /// Driver, between passes (workers quiescent): rebuilds the exclusion
  /// set over all crashed-so-far workers and collects the crashed worker's
  /// uncompleted descriptors as the replay set, which AssignOwners re-owns
  /// when the replay pass is admitted. Returns the replay count R; the next
  /// pass runs with synthetic roots 0..R-1.
  uint32_t PrepareSalvage(uint32_t crashed_worker);

  /// True when (prefix, extension, primitive_index) identifies a subtree
  /// that is already covered — committed by a survivor or queued as its own
  /// replay root — and must be skipped by a replaying enumeration. The
  /// triple is injective across one step's enumeration tree (extensions are
  /// a pure function of the prefix words and the strategy), so no further
  /// state is compared. Hot, lock- and allocation-free.
  FRACTAL_HOT bool Excluded(const Subgraph& prefix, uint32_t extension,
                            uint32_t primitive_index) const {
    const uint64_t hash = DescriptorHash(prefix, extension, primitive_index);
    const std::vector<uint64_t>& hashes = exclusions_.hashes;
    size_t lo = 0;
    size_t hi = hashes.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (hashes[mid] < hash) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (; lo < hashes.size() && hashes[lo] == hash; ++lo) {
      if (ExclusionMatches(lo, prefix, extension, primitive_index)) {
        return true;
      }
    }
    return false;
  }

  /// Cheap pre-test for the per-extension check in DrainFrame: false until
  /// the first PrepareSalvage, so fault-free and from-scratch runs pay one
  /// predictable branch.
  FRACTAL_HOT bool has_exclusions() const { return !exclusions_.hashes.empty(); }

  /// True once PrepareSalvage ran: frames[0] entries are replay indices at
  /// kReplayRootPrimitive, not root extensions.
  bool salvage_pass() const { return salvage_pass_; }

  /// Task id of the frames[0] entry `key`: a root extension value during
  /// the initial attempt, a replay index during salvage passes. Reads only
  /// attempt-frozen structures (lock-free).
  uint64_t RootTaskId(uint32_t key) const;

  /// Descriptor behind replay index `index` (attempt-frozen, lock-free).
  const SubgraphEnumerator::StolenWork& replay_root(uint32_t index) const {
    return replay_work_[index];
  }

  /// Work units stamped complete so far (the salvageable watermark).
  uint64_t completed_units() const {
    return completed_units_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes: descriptors + record headers + the
  /// exclusion pools (runtime.ledger_bytes).
  uint64_t ApproxBytes() const {
    return ledger_bytes_.load(std::memory_order_relaxed);
  }

  /// Records stamped so far (roots + interior claims); test hook.
  uint64_t num_records() const;

 private:
  struct TaskRecord {
    TaskRecord(uint32_t owner_worker, uint32_t victim_worker,
               std::vector<uint8_t> bytes)
        : owner(owner_worker),
          victim(victim_worker),
          descriptor(std::move(bytes)) {}
    std::atomic<uint32_t> owner;
    uint32_t victim;
    std::atomic<bool> completed{false};
    std::vector<uint8_t> descriptor;
  };

  /// Exclusion descriptors in structure-of-arrays form: hashes sorted for
  /// binary search, word storage pooled so lookups touch two flat arrays.
  struct ExclusionSet {
    struct Entry {
      uint32_t extension;
      uint32_t primitive_index;
      uint32_t v_begin, v_end;
      uint32_t e_begin, e_end;
    };
    std::vector<uint64_t> hashes;
    std::vector<Entry> entries;  // parallel to hashes
    std::vector<uint32_t> vwords;
    std::vector<uint32_t> ewords;
  };

  static uint64_t MixHash(uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    return h ^ (h >> 33);
  }

  static uint64_t DescriptorHash(const Subgraph& prefix, uint32_t extension,
                                 uint32_t primitive_index) {
    uint64_t h = 0x5ca1ab1eull;
    for (const VertexId v : prefix.Vertices()) h = MixHash(h, v);
    h = MixHash(h, 0xfeedu);  // separator: vertex/edge words must not alias
    for (const EdgeId e : prefix.Edges()) h = MixHash(h, e);
    return MixHash(h, (uint64_t{extension} << 32) | primitive_index);
  }

  FRACTAL_HOT bool ExclusionMatches(size_t index, const Subgraph& prefix,
                                    uint32_t extension,
                                    uint32_t primitive_index) const {
    const ExclusionSet::Entry& entry = exclusions_.entries[index];
    if (entry.extension != extension ||
        entry.primitive_index != primitive_index) {
      return false;
    }
    const std::span<const VertexId> vertices = prefix.Vertices();
    const std::span<const EdgeId> edges = prefix.Edges();
    if (entry.v_end - entry.v_begin != vertices.size() ||
        entry.e_end - entry.e_begin != edges.size()) {
      return false;
    }
    for (uint32_t i = 0; i < vertices.size(); ++i) {
      if (exclusions_.vwords[entry.v_begin + i] != vertices[i]) return false;
    }
    for (uint32_t i = 0; i < edges.size(); ++i) {
      if (exclusions_.ewords[entry.e_begin + i] != edges[i]) return false;
    }
    return true;
  }

  /// Leaf lock (DESIGN.md §5): guards record appends and completion
  /// stamps. Safe under SubgraphEnumerator steal paths because TrySteal
  /// acquires and releases its own mutex *before* the stamp happens.
  mutable Mutex mu_{"LineageLedger::mu"};
  std::deque<TaskRecord> records_ GUARDED_BY(mu_);

  // Attempt-frozen (rebuilt only between passes, driver thread): the
  // frames[0] key -> record id map, the replay set, and the exclusion set.
  std::unordered_map<uint32_t, uint64_t> root_by_value_;
  size_t num_roots_ = 0;
  std::vector<uint64_t> replay_ids_;
  std::vector<SubgraphEnumerator::StolenWork> replay_work_;
  ExclusionSet exclusions_;
  bool salvage_pass_ = false;
  uint64_t crashed_workers_mask_ = 0;

  std::atomic<uint64_t> completed_units_{0};
  std::atomic<uint64_t> ledger_bytes_{0};
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_LINEAGE_H_
