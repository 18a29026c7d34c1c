// Pattern aggregation: the allocation-free form of the A primitive for
// aggregations keyed by canonical pattern (motif counting, FSM; paper §2.2
// and DESIGN.md §13). Per subgraph, the thread's CanonicalPatternCache maps
// the packed quick-pattern key to a dense canonical-class id, and the value
// is folded in place into a per-thread array indexed by that id — no key
// copy, no temporary value, no node allocation. Canonical Pattern keys are
// materialized only when storages of different threads merge at the step
// barrier, into the same AggregationStorage<Pattern, V, PatternHash> map
// that ExecutionResult::Aggregation and FilterByAggregation read.
//
// The per-subgraph fold is the overload set FoldPatternMatch(V&, const
// PatternMatch&) (found by ordinary or argument-dependent lookup): counts
// are defined here, FSM's DomainSupport in apps/fsm.h. Overloads are plain
// functions so the hot-path lint walks them like any other callee.
#ifndef FRACTAL_CORE_PATTERN_AGGREGATION_H_
#define FRACTAL_CORE_PATTERN_AGGREGATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/computation.h"
#include "pattern/canonical.h"
#include "pattern/quick_key.h"
#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {

/// What an in-place pattern fold sees for one subgraph.
struct PatternMatch {
  const Subgraph& subgraph;
  /// Class id and quick -> canonical position map of `subgraph`.
  const CanonicalPatternCache::Mapping& mapping;
  /// The class representative: canonical pattern and orbits.
  const CanonicalResult& canonical;
};

/// Fold of a pattern count: one more occurrence of the class.
FRACTAL_HOT inline void FoldPatternMatch(uint64_t& count,
                                         const PatternMatch& /*match*/) {
  ++count;
}

/// Accumulator of one pattern aggregation on one thread: dense values by
/// the thread cache's class id until merged across threads, a Pattern-keyed
/// map (the base class) afterwards.
template <typename V>
class PatternAggregationStorage final
    : public AggregationStorage<Pattern, V, PatternHash> {
  using Base = AggregationStorage<Pattern, V, PatternHash>;

 public:
  PatternAggregationStorage(V initial, typename Base::ReduceFn reduce_fn,
                            typename Base::PostFilterFn post_filter)
      : Base(nullptr, nullptr, std::move(reduce_fn), std::move(post_filter)),
        initial_(std::move(initial)) {}

  /// One packed-key build, one cache probe, one in-place fold.
  FRACTAL_HOT void Accumulate(const Subgraph& subgraph,
                              Computation& comp) override {
    const CanonicalPatternCache::Mapping& mapping =
        comp.CanonicalClassOf(subgraph);
    const uint32_t class_id = mapping.class_id;
    if (class_id >= live_.size() || live_[class_id] == 0) {
      Touch(comp, class_id);
    }
    FoldPatternMatch(dense_[class_id],
                     PatternMatch{subgraph, mapping, cache_->Class(class_id)});
  }

  /// Storages of the same thread (a lineage task's scratch into the
  /// committed state) share class ids and fold class by class; storages of
  /// different threads merge by canonical Pattern.
  void MergeFrom(AggregationStorageBase& other_base) override {
    auto* other = dynamic_cast<PatternAggregationStorage*>(&other_base);
    FRACTAL_CHECK(other != nullptr) << "merging incompatible aggregations";
    if (other->cache_ != cache_ && !other->touched_.empty()) {
      Materialize();
      other->Materialize();
    }
    for (const uint32_t class_id : other->touched_) {
      if (class_id >= live_.size() || live_[class_id] == 0) {
        EnsureSlot(class_id);
        live_[class_id] = 1;
        touched_.push_back(class_id);
        std::swap(dense_[class_id], other->dense_[class_id]);
      } else {
        this->reduce_fn_(dense_[class_id],
                         std::move(other->dense_[class_id]));
        other->dense_[class_id] = other->initial_;
      }
      other->live_[class_id] = 0;
    }
    other->touched_.clear();
    Base::MergeFrom(*other);  // its materialized entries, if any
  }

  void Clear() override {
    Base::Clear();
    for (const uint32_t class_id : touched_) {
      dense_[class_id] = initial_;
      live_[class_id] = 0;
    }
    touched_.clear();
  }

  /// Materialized entries plus classes still held densely.
  size_t NumEntries() const override {
    return Base::NumEntries() + touched_.size();
  }

  uint64_t ApproxBytes() const override {
    uint64_t bytes = Base::ApproxBytes() + dense_.capacity() * sizeof(V) +
                     live_.capacity() +
                     touched_.capacity() * sizeof(uint32_t);
    for (const uint32_t class_id : touched_) {
      bytes += HeapBytesOf(dense_[class_id]);
    }
    return bytes;
  }

 private:
  /// First fold of a class into this storage: binds the thread's cache and
  /// grows the dense arrays (amortized, at most once per class).
  void Touch(Computation& comp, uint32_t class_id) {
    FRACTAL_HOT_ESCAPE("first fold of a class: once per class per storage");
    AllocGuard::Allow allow("dense accumulator growth: once per class");
    if (cache_ == nullptr) cache_ = &comp.canonical_cache();
    FRACTAL_DCHECK(cache_ == &comp.canonical_cache());
    EnsureSlot(class_id);
    live_[class_id] = 1;
    touched_.push_back(class_id);
  }

  void EnsureSlot(uint32_t class_id) {
    if (class_id < dense_.size()) return;
    const size_t size = std::max<size_t>(class_id + 1, 2 * dense_.size());
    dense_.resize(size, initial_);
    live_.resize(size, 0);
  }

  /// Moves the dense classes into the Pattern-keyed map (step barrier).
  /// Every value goes through the reduce function from `initial_`, so
  /// values that normalize on merge (FSM domains) arrive normalized.
  void Materialize() {
    for (const uint32_t class_id : touched_) {
      auto [it, inserted] = this->entries_.try_emplace(
          cache_->Class(class_id).pattern, initial_);
      this->reduce_fn_(it->second, std::move(dense_[class_id]));
      dense_[class_id] = initial_;
      live_[class_id] = 0;
    }
    touched_.clear();
  }

  const V initial_;
  const CanonicalPatternCache* cache_ = nullptr;  // whose class ids we hold
  std::vector<V> dense_;          // by class id; initial_ when not live
  std::vector<uint8_t> live_;     // by class id
  std::vector<uint32_t> touched_;  // live class ids, first-fold order
};

/// Descriptor of a pattern aggregation (see Fractoid::AggregatePatterns).
template <typename V>
class PatternAggregationSpec final : public AggregationSpecBase {
 public:
  using Storage = PatternAggregationStorage<V>;
  using ReduceFn = typename Storage::ReduceFn;
  using PostFilterFn = typename Storage::PostFilterFn;

  PatternAggregationSpec(std::string name, V initial, ReduceFn reduce_fn,
                         PostFilterFn post_filter)
      : AggregationSpecBase(std::move(name)),
        initial_(std::move(initial)),
        reduce_fn_(std::move(reduce_fn)),
        post_filter_(std::move(post_filter)) {}

  std::unique_ptr<AggregationStorageBase> CreateStorage() const override {
    return std::make_unique<Storage>(initial_, reduce_fn_, post_filter_);
  }

  uint32_t MaxSubgraphVertices() const override {
    return QuickPatternKey::kMaxVertices;
  }

 private:
  V initial_;
  ReduceFn reduce_fn_;
  PostFilterFn post_filter_;
};

}  // namespace fractal

#endif  // FRACTAL_CORE_PATTERN_AGGREGATION_H_
