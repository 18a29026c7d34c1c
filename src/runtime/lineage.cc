#include "runtime/lineage.h"

#include <algorithm>
#include <utility>

#include "runtime/codec.h"
#include "util/alloc_guard.h"
#include "util/check.h"

namespace fractal {

void LineageLedger::BeginAttempt(const std::vector<uint32_t>& roots) {
  MutexLock lock(mu_);
  FRACTAL_CHECK(records_.empty())
      << "BeginAttempt must run once per LineageLedger";
  SubgraphEnumerator::StolenWork work;
  for (size_t i = 0; i < roots.size(); ++i) {
    work.prefix.Clear();
    work.extension = roots[i];
    work.primitive_index = 1;
    work.lineage_id = records_.size();
    std::vector<uint8_t> bytes = SubgraphCodec::EncodeStolenWork(work);
    ledger_bytes_.fetch_add(bytes.size() + sizeof(TaskRecord),
                            std::memory_order_relaxed);
    root_by_value_.emplace(roots[i], records_.size());
    // Owned by nobody until AssignOwners runs at the step's admission.
    records_.emplace_back(kNoVictim, kNoVictim, std::move(bytes));
  }
  num_roots_ = roots.size();
}

void LineageLedger::AssignOwners(uint64_t live_mask,
                                 uint32_t threads_per_worker) {
  MutexLock lock(mu_);
  const uint32_t live_threads =
      static_cast<uint32_t>(std::popcount(live_mask)) * threads_per_worker;
  FRACTAL_CHECK(live_threads > 0) << "no live threads to own the roots";
  // frames[0] entry i of the coming pass is root record i (BeginAttempt
  // appends them first, in root order) or replay record replay_ids_[i].
  const size_t count = salvage_pass_ ? replay_ids_.size() : num_roots_;
  // Walk each live thread's contiguous slice: the exact partition its
  // Worker::RunStepOnThread computes (shared helpers in lineage.h).
  for (uint32_t worker = 0; worker < 64; ++worker) {
    if (((live_mask >> worker) & 1) == 0) continue;
    for (uint32_t core = 0; core < threads_per_worker; ++core) {
      const uint32_t rank =
          LiveThreadRank(live_mask, worker, core, threads_per_worker);
      const RootSlice slice = PartitionRoots(count, rank, live_threads);
      for (size_t i = slice.begin; i < slice.end; ++i) {
        const uint64_t id = salvage_pass_ ? replay_ids_[i] : i;
        records_[id].owner.store(worker, std::memory_order_relaxed);
      }
    }
  }
}

void LineageLedger::StampClaim(uint32_t victim_worker, uint32_t thief_worker,
                               SubgraphEnumerator::StolenWork* work) {
  AllocGuard::Allow allow("lineage stamping: descriptor bytes + ledger record");
  const bool root_claim =
      work->prefix.Empty() && (work->primitive_index == 1 ||
                               work->primitive_index == kReplayRootPrimitive);
  if (root_claim) {
    // frames[0] entries already have records; the claim transfers
    // ownership so the crash accounting follows the work.
    const uint64_t id = RootTaskId(work->extension);
    work->lineage_id = id;
    MutexLock lock(mu_);
    records_[id].owner.store(thief_worker, std::memory_order_relaxed);
    return;
  }
  // Interior claim: mint a record carrying the full descriptor. If the
  // claimed subtree is already covered (a thief won the cursor race against
  // the owner's exclusion skip during a salvage pass), the record is born
  // completed and FractoidStepTask::ProcessStolen drops the work on
  // arrival — it must be enumerated exactly once.
  const bool already_covered =
      Excluded(work->prefix, work->extension, work->primitive_index);
  std::vector<uint8_t> bytes = SubgraphCodec::EncodeStolenWork(*work);
  MutexLock lock(mu_);
  const uint64_t id = records_.size();
  ledger_bytes_.fetch_add(bytes.size() + sizeof(TaskRecord),
                          std::memory_order_relaxed);
  records_.emplace_back(thief_worker, victim_worker, std::move(bytes));
  if (already_covered) {
    records_[id].completed.store(true, std::memory_order_relaxed);
  }
  work->lineage_id = id;
}

void LineageLedger::StampComplete(uint64_t task_id, uint64_t units) {
  // The deque never moves elements, but indexing concurrently with an
  // appending push_back is not safe lock-free; completion is once per task
  // (not per work unit), so the leaf lock is cheap enough.
  MutexLock lock(mu_);
  records_[task_id].completed.store(true, std::memory_order_relaxed);
  completed_units_.fetch_add(units, std::memory_order_relaxed);
}

uint64_t LineageLedger::RootTaskId(uint32_t key) const {
  if (salvage_pass_) return replay_ids_[key];
  const auto it = root_by_value_.find(key);
  FRACTAL_CHECK(it != root_by_value_.end())
      << "root extension " << key << " has no lineage record";
  return it->second;
}

uint64_t LineageLedger::num_records() const {
  MutexLock lock(mu_);
  return records_.size();
}

uint32_t LineageLedger::PrepareSalvage(uint32_t crashed_worker) {
  MutexLock lock(mu_);
  crashed_workers_mask_ |= uint64_t{1} << crashed_worker;

  // (a) Exclusion set: every subtree claimed *out of* any crashed-so-far
  // worker, rebuilt from scratch per crash so nested salvage passes see the
  // union. Completion does not matter: a completed claim is committed by
  // its thief, an uncompleted one is (or was) its own replay root — either
  // way a replaying parent must not re-enumerate it.
  struct PendingExclusion {
    uint64_t hash;
    SubgraphEnumerator::StolenWork work;
  };
  std::vector<PendingExclusion> pending;
  for (const TaskRecord& record : records_) {
    if (record.victim == kNoVictim) continue;
    if (((crashed_workers_mask_ >> record.victim) & 1) == 0) continue;
    PendingExclusion entry;
    FRACTAL_CHECK(SubgraphCodec::DecodeStolenWork(record.descriptor,
                                                  &entry.work))
        << "corrupted lineage descriptor";
    entry.hash = DescriptorHash(entry.work.prefix, entry.work.extension,
                                entry.work.primitive_index);
    pending.push_back(std::move(entry));
  }
  std::sort(pending.begin(), pending.end(),
            [](const PendingExclusion& a, const PendingExclusion& b) {
              return a.hash < b.hash;
            });
  ledger_bytes_.fetch_sub(exclusions_.vwords.size() * sizeof(uint32_t) +
                              exclusions_.ewords.size() * sizeof(uint32_t) +
                              exclusions_.hashes.size() *
                                  (sizeof(uint64_t) +
                                   sizeof(ExclusionSet::Entry)),
                          std::memory_order_relaxed);
  exclusions_ = ExclusionSet{};
  for (PendingExclusion& entry : pending) {
    ExclusionSet::Entry packed;
    packed.extension = entry.work.extension;
    packed.primitive_index = entry.work.primitive_index;
    packed.v_begin = static_cast<uint32_t>(exclusions_.vwords.size());
    packed.e_begin = static_cast<uint32_t>(exclusions_.ewords.size());
    for (const VertexId v : entry.work.prefix.Vertices()) {
      exclusions_.vwords.push_back(v);
    }
    for (const EdgeId e : entry.work.prefix.Edges()) {
      exclusions_.ewords.push_back(e);
    }
    packed.v_end = static_cast<uint32_t>(exclusions_.vwords.size());
    packed.e_end = static_cast<uint32_t>(exclusions_.ewords.size());
    exclusions_.hashes.push_back(entry.hash);
    exclusions_.entries.push_back(packed);
  }
  ledger_bytes_.fetch_add(exclusions_.vwords.size() * sizeof(uint32_t) +
                              exclusions_.ewords.size() * sizeof(uint32_t) +
                              exclusions_.hashes.size() *
                                  (sizeof(uint64_t) +
                                   sizeof(ExclusionSet::Entry)),
                          std::memory_order_relaxed);

  // (b) Replay set: descriptors the crashed worker owned and never
  // completed. Survivors drain their own roots and finish every task they
  // claim before a failed step winds down, so this is exactly the lost
  // frontier. Records are reused in place; AssignOwners re-owns them at
  // the replay pass's admission.
  replay_ids_.clear();
  replay_work_.clear();
  for (uint64_t id = 0; id < records_.size(); ++id) {
    const TaskRecord& record = records_[id];
    if (record.completed.load(std::memory_order_relaxed)) continue;
    if (record.owner.load(std::memory_order_relaxed) != crashed_worker) {
      continue;
    }
    SubgraphEnumerator::StolenWork work;
    FRACTAL_CHECK(SubgraphCodec::DecodeStolenWork(record.descriptor, &work))
        << "corrupted lineage descriptor";
    work.lineage_id = id;
    replay_ids_.push_back(id);
    replay_work_.push_back(std::move(work));
  }

  salvage_pass_ = true;
  return static_cast<uint32_t>(replay_work_.size());
}

}  // namespace fractal
