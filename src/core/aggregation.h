// The Aggregation primitive (paper §3, W2): maps each subgraph to a
// key/value entry and reduces values sharing a key. An AggregationSpec packs
// the user's key/value/reduce/post-filter functions; each execution thread
// accumulates into its own AggregationStorage, and the executor merges the
// thread-local storages into the step's final result (then applies the
// optional aggregation filter `aggFilter`).
//
// Typed K/V with std::function user hooks; the executor manipulates
// storages through the type-erased base classes.
#ifndef FRACTAL_CORE_AGGREGATION_H_
#define FRACTAL_CORE_AGGREGATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "enumerate/subgraph.h"
#include "util/alloc_guard.h"
#include "util/check.h"

namespace fractal {

class Computation;

// --- Heap-footprint hook for aggregation keys/values ----------------------
// AggregationStorage::ApproxBytes must count heap owned *by* the entries
// (Pattern edge vectors, strings, FSM domain sets, ...), not just their
// inline sizeof — otherwise Table 2 memory drilldowns undercount exactly
// the workloads (motifs, FSM) where the keys dominate. A type opts in by
// exposing a `uint64_t ApproxHeapBytes() const` member; common standard
// containers are covered by the overloads below. Types without either
// report 0 (inline-only, correct for trivially copyable keys like ints).

namespace internal {
template <typename T, typename = void>
struct HasApproxHeapBytes : std::false_type {};
template <typename T>
struct HasApproxHeapBytes<
    T, std::void_t<decltype(static_cast<uint64_t>(
           std::declval<const T&>().ApproxHeapBytes()))>> : std::true_type {
};
}  // namespace internal

/// Heap bytes owned by `value` (not counting sizeof(T) itself).
template <typename T>
uint64_t HeapBytesOf(const T& value) {
  if constexpr (internal::HasApproxHeapBytes<T>::value) {
    return value.ApproxHeapBytes();
  } else {
    // No hook: assume inline-only. Exact for trivially copyable types;
    // heap-owning types should expose ApproxHeapBytes() or they undercount.
    return 0;
  }
}

inline uint64_t HeapBytesOf(const std::string& value) {
  // Approximate SSO: a capacity at or below the inline buffer owns no heap.
  return value.capacity() > sizeof(std::string) - 1 ? value.capacity() + 1
                                                    : 0;
}

template <typename E, typename A>
uint64_t HeapBytesOf(const std::vector<E, A>& value) {
  uint64_t bytes = static_cast<uint64_t>(value.capacity()) * sizeof(E);
  if constexpr (!std::is_trivially_copyable_v<E>) {
    for (const E& element : value) bytes += HeapBytesOf(element);
  }
  return bytes;
}

template <typename A, typename B>
uint64_t HeapBytesOf(const std::pair<A, B>& value) {
  return HeapBytesOf(value.first) + HeapBytesOf(value.second);
}

/// Type-erased view of an aggregation result / accumulator.
///
/// The reduce function must be commutative and associative: thread-local
/// storages merge in thread order, but which thread accumulated which
/// subgraph depends on stealing — and under salvage recovery
/// (runtime/lineage.h) on which tasks were replayed where. Bit-exactness of
/// recovered runs (DESIGN.md §11) rests on the merge being
/// order-independent.
class AggregationStorageBase {
 public:
  virtual ~AggregationStorageBase() = default;

  /// Maps `subgraph` to a key/value entry and reduces it in.
  virtual void Accumulate(const Subgraph& subgraph, Computation& comp) = 0;

  /// Merges (and consumes) another storage created by the same spec.
  virtual void MergeFrom(AggregationStorageBase& other) = 0;

  /// Drops every entry (used to discard an uncommitted task's scratch
  /// accumulator after a crash).
  virtual void Clear() = 0;

  /// Applies the spec's post-filter (aggFilter), dropping failing entries.
  virtual void ApplyPostFilter() = 0;

  virtual size_t NumEntries() const = 0;

  /// Rough heap footprint in bytes (for memory drilldowns).
  virtual uint64_t ApproxBytes() const = 0;
};

/// Type-erased aggregation descriptor (the payload of an A primitive).
class AggregationSpecBase {
 public:
  explicit AggregationSpecBase(std::string name) : name_(std::move(name)) {}
  virtual ~AggregationSpecBase() = default;

  const std::string& name() const { return name_; }

  virtual std::unique_ptr<AggregationStorageBase> CreateStorage() const = 0;

  /// Largest subgraph (in vertices) the aggregation can key; the executor
  /// rejects a workflow that could feed it a larger one before enumerating.
  virtual uint32_t MaxSubgraphVertices() const { return UINT32_MAX; }

 private:
  std::string name_;
};

/// Typed aggregation storage: an unordered_map<K, V> plus the user hooks.
template <typename K, typename V, typename Hash = std::hash<K>>
class AggregationStorage : public AggregationStorageBase {
 public:
  /// Key extractor (paper: `key: (Subgraph, Computation) => K`).
  using KeyFn = std::function<K(const Subgraph&, Computation&)>;
  /// Value extractor (paper: `value: (Subgraph, Computation) => V`).
  using ValueFn = std::function<V(const Subgraph&, Computation&)>;
  /// In-place reduction: folds `from` into `into` (paper: `(V, V) => V`).
  using ReduceFn = std::function<void(V& into, V&& from)>;
  /// Final filter on reduced entries (paper: `aggFilter: (K, V) => Boolean`).
  using PostFilterFn = std::function<bool(const K&, const V&)>;

  AggregationStorage(KeyFn key_fn, ValueFn value_fn, ReduceFn reduce_fn,
                     PostFilterFn post_filter)
      : key_fn_(std::move(key_fn)),
        value_fn_(std::move(value_fn)),
        reduce_fn_(std::move(reduce_fn)),
        post_filter_(std::move(post_filter)) {}

  void Accumulate(const Subgraph& subgraph, Computation& comp) override {
    // User key/value/reduce callbacks and node-based map growth: application
    // code with its own allocation policy (pattern aggregations take the
    // allocation-free path of core/pattern_aggregation.h instead).
    AllocGuard::Allow allow("user aggregation key/value/reduce callbacks");
    K key = key_fn_(subgraph, comp);
    V value = value_fn_(subgraph, comp);
    auto [it, inserted] = entries_.try_emplace(std::move(key));
    if (inserted) {
      it->second = std::move(value);
    } else {
      reduce_fn_(it->second, std::move(value));
    }
  }

  void MergeFrom(AggregationStorageBase& other_base) override {
    auto* other = dynamic_cast<AggregationStorage*>(&other_base);
    FRACTAL_CHECK(other != nullptr) << "merging incompatible aggregations";
    // Move whole map nodes across instead of copying keys: for heap-owning
    // keys (Pattern, strings) the thread-local merge at every step barrier
    // would otherwise allocate per entry — a hot-path violation under the
    // alloc-guard (the lineage CommitTask path merges inside the guarded
    // region). Only a rehash of the destination can allocate here.
    for (auto it = other->entries_.begin(); it != other->entries_.end();) {
      auto node = other->entries_.extract(it++);
      const auto found = entries_.find(node.key());
      if (found == entries_.end()) {
        entries_.insert(std::move(node));
      } else {
        reduce_fn_(found->second, std::move(node.mapped()));
        // `node` frees the duplicate on scope exit.
      }
    }
  }

  void Clear() override { entries_.clear(); }

  void ApplyPostFilter() override {
    if (!post_filter_) return;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (post_filter_(it->first, it->second)) {
        ++it;
      } else {
        it = entries_.erase(it);
      }
    }
  }

  size_t NumEntries() const override { return entries_.size(); }

  uint64_t ApproxBytes() const override {
    // Node-based map: per entry one node (key + value + next pointer +
    // cached hash) plus the bucket array, plus whatever heap the key/value
    // themselves own (HeapBytesOf hook above). O(entries) — this feeds
    // memory drilldowns (Table 2), not the enumeration hot path.
    uint64_t bytes =
        static_cast<uint64_t>(entries_.bucket_count()) * sizeof(void*) +
        entries_.size() * (sizeof(K) + sizeof(V) + 2 * sizeof(void*));
    for (const auto& [key, value] : entries_) {
      bytes += HeapBytesOf(key) + HeapBytesOf(value);
    }
    return bytes;
  }

  const std::unordered_map<K, V, Hash>& entries() const { return entries_; }

  bool Contains(const K& key) const { return entries_.count(key) > 0; }

  const V* Find(const K& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

 protected:
  std::unordered_map<K, V, Hash> entries_;
  KeyFn key_fn_;
  ValueFn value_fn_;
  ReduceFn reduce_fn_;
  PostFilterFn post_filter_;
};

/// Typed aggregation descriptor.
template <typename K, typename V, typename Hash = std::hash<K>>
class AggregationSpec : public AggregationSpecBase {
 public:
  using Storage = AggregationStorage<K, V, Hash>;

  AggregationSpec(std::string name, typename Storage::KeyFn key_fn,
                  typename Storage::ValueFn value_fn,
                  typename Storage::ReduceFn reduce_fn,
                  typename Storage::PostFilterFn post_filter = nullptr)
      : AggregationSpecBase(std::move(name)),
        key_fn_(std::move(key_fn)),
        value_fn_(std::move(value_fn)),
        reduce_fn_(std::move(reduce_fn)),
        post_filter_(std::move(post_filter)) {}

  std::unique_ptr<AggregationStorageBase> CreateStorage() const override {
    return std::make_unique<Storage>(key_fn_, value_fn_, reduce_fn_,
                                     post_filter_);
  }

 private:
  typename Storage::KeyFn key_fn_;
  typename Storage::ValueFn value_fn_;
  typename Storage::ReduceFn reduce_fn_;
  typename Storage::PostFilterFn post_filter_;
};

/// Downcasts a completed storage to its typed form (CHECKs on mismatch).
template <typename K, typename V, typename Hash = std::hash<K>>
const AggregationStorage<K, V, Hash>& TypedStorage(
    const AggregationStorageBase& base) {
  const auto* typed = dynamic_cast<const AggregationStorage<K, V, Hash>*>(&base);
  FRACTAL_CHECK(typed != nullptr) << "aggregation type mismatch";
  return *typed;
}

}  // namespace fractal

#endif  // FRACTAL_CORE_AGGREGATION_H_
