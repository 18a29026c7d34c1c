// Computation: the per-thread execution context handed to every user
// function (the `comp` parameter of the paper's API, Fig. 4). Provides the
// (possibly reduced) input graph, memoized pattern canonicalization (the
// per-thread CanonicalPatternCache every pattern aggregation folds through),
// and the extension-cost counters.
#ifndef FRACTAL_CORE_COMPUTATION_H_
#define FRACTAL_CORE_COMPUTATION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "enumerate/extension.h"
#include "enumerate/subgraph.h"
#include "graph/graph.h"
#include "pattern/canonical.h"
#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {

/// Not thread-safe; one instance per execution thread.
class Computation {
 public:
  explicit Computation(const Graph* graph) : graph_(graph) {}

  Computation(const Computation&) = delete;
  Computation& operator=(const Computation&) = delete;

  const Graph& graph() const { return *graph_; }

  /// Canonical class and quick -> canonical position map of `subgraph`:
  /// one packed-key build and one flat-table probe, memoized by quick
  /// pattern — the per-subgraph hot path of motif counting and FSM.
  FRACTAL_HOT const CanonicalPatternCache::Mapping& CanonicalClassOf(
      const Subgraph& subgraph) {
    return canonical_cache_.Classify(subgraph.QuickKey(*graph_));
  }

  /// `verdict(canonical pattern)` for the class of `subgraph`, evaluated
  /// once per class and `tag` on this thread, then answered from a dense
  /// per-class table: the aggregation-filter twin of the dense
  /// accumulators (DESIGN.md §13). `tag` names the predicate (e.g. the
  /// completed aggregation it reads) and must outlive this Computation.
  template <typename Verdict>
  bool ClassVerdict(const Subgraph& subgraph, const void* tag,
                    const Verdict& verdict) {
    const uint32_t class_id = CanonicalClassOf(subgraph).class_id;
    std::vector<int8_t>& verdicts = VerdictsFor(tag);
    if (class_id < verdicts.size() && verdicts[class_id] >= 0) {
      return verdicts[class_id] != 0;
    }
    AllocGuard::Allow allow("class verdict miss: once per class per thread");
    if (class_id >= verdicts.size()) {
      verdicts.resize(std::max<size_t>(class_id + 1, 2 * verdicts.size()),
                      -1);
    }
    const bool pass = verdict(canonical_cache_.Class(class_id).pattern);
    verdicts[class_id] = pass ? 1 : 0;
    return pass;
  }

  CanonicalPatternCache& canonical_cache() { return canonical_cache_; }

  ExtensionContext& extension_context() { return extension_context_; }

  /// Per-thread scratch pool of the enumeration data plane (DESIGN.md §8).
  ScratchArena& scratch_arena() { return extension_context_.arena; }

  uint32_t worker_id() const { return worker_id_; }
  uint32_t core_id() const { return core_id_; }
  void SetIds(uint32_t worker_id, uint32_t core_id) {
    worker_id_ = worker_id;
    core_id_ = core_id;
  }

 private:
  struct VerdictTable {
    const void* tag = nullptr;
    std::vector<int8_t> verdicts;  // by class id: -1 unknown, 0/1 verdict
  };

  std::vector<int8_t>& VerdictsFor(const void* tag) {
    for (VerdictTable& table : verdict_tables_) {
      if (table.tag == tag) return table.verdicts;
    }
    AllocGuard::Allow allow("first verdict lookup of a predicate");
    verdict_tables_.push_back(VerdictTable{tag, {}});
    return verdict_tables_.back().verdicts;
  }

  const Graph* graph_;
  CanonicalPatternCache canonical_cache_;
  std::vector<VerdictTable> verdict_tables_;
  ExtensionContext extension_context_;
  uint32_t worker_id_ = 0;
  uint32_t core_id_ = 0;
};

}  // namespace fractal

#endif  // FRACTAL_CORE_COMPUTATION_H_
