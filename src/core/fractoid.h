// Fractoid: the state object of a Fractal application (paper §3.1). A
// fractoid couples an input graph, an extension strategy (vertex-, edge- or
// pattern-induced) and a workflow of primitives; the workflow operators
// (Fig. 4) derive new fractoids without executing anything. Output operators
// (Fig. 5 — here CountSubgraphs / CollectSubgraphs / AggregationResult via
// Execute) trigger compilation into fractal steps and execution.
//
// Fractoids are cheap immutable values; deriving shares the graph, the
// strategy, and the cached aggregation results of already-executed steps
// (paper §4.1: W4 aggregation results are reused, never recomputed).
#ifndef FRACTAL_CORE_FRACTOID_H_
#define FRACTAL_CORE_FRACTOID_H_

#include <memory>
#include <string>
#include <vector>

#include "core/computation.h"
#include "core/execution_types.h"
#include "core/pattern_aggregation.h"
#include "core/primitives.h"
#include "enumerate/extension.h"
#include "graph/graph.h"

namespace fractal {

class Fractoid {
 public:
  /// Builds a fractoid over `graph` with the given extension strategy.
  /// Usually obtained from FractalGraph (context.h) rather than directly.
  Fractoid(std::shared_ptr<const Graph> graph,
           std::shared_ptr<const ExtensionStrategy> strategy);

  // --- Workflow operators (Fig. 4) ---------------------------------------

  /// W1: appends `depth` extension (E) primitives.
  Fractoid Expand(uint32_t depth = 1) const;

  /// W3: appends a local filter (F) primitive.
  Fractoid Filter(LocalFilterFn filter) const;

  /// W4: appends an aggregation-reading filter (a synchronization point).
  /// The typed predicate receives the completed aggregation previously
  /// registered under `name` (the nearest preceding Aggregate call).
  template <typename K, typename V, typename Hash = std::hash<K>,
            typename Predicate>
  Fractoid FilterByAggregation(const std::string& name,
                               Predicate filter) const {
    AggregationFilterFn erased =
        [filter = std::move(filter)](const Subgraph& subgraph,
                                     Computation& comp,
                                     const AggregationStorageBase& storage) {
          return filter(subgraph, comp, TypedStorage<K, V, Hash>(storage));
        };
    return WithAggregationFilter(name, std::move(erased));
  }

  /// W2: appends an aggregation (A) primitive named `name`.
  template <typename K, typename V, typename Hash = std::hash<K>>
  Fractoid Aggregate(
      const std::string& name,
      typename AggregationStorage<K, V, Hash>::KeyFn key_fn,
      typename AggregationStorage<K, V, Hash>::ValueFn value_fn,
      typename AggregationStorage<K, V, Hash>::ReduceFn reduce_fn,
      typename AggregationStorage<K, V, Hash>::PostFilterFn post_filter =
          nullptr) const {
    auto spec = std::make_shared<AggregationSpec<K, V, Hash>>(
        name, std::move(key_fn), std::move(value_fn), std::move(reduce_fn),
        std::move(post_filter));
    return WithAggregate(std::move(spec));
  }

  /// W2 for aggregations keyed by canonical pattern (motifs, FSM): each
  /// subgraph is folded in place with FoldPatternMatch(V&, const
  /// PatternMatch&) into a per-thread accumulator indexed by canonical class
  /// (core/pattern_aggregation.h); fresh classes start from `initial`.
  /// The completed result is an AggregationStorage<Pattern, V, PatternHash>
  /// like any Aggregate<Pattern, V, PatternHash>. Subgraphs must fit the
  /// quick-pattern key (QuickPatternKey::kMaxVertices vertices): a workflow
  /// that could exceed it fails with a non-OK status before enumerating.
  template <typename V>
  Fractoid AggregatePatterns(
      const std::string& name, V initial,
      typename PatternAggregationStorage<V>::ReduceFn reduce_fn,
      typename PatternAggregationStorage<V>::PostFilterFn post_filter =
          nullptr) const {
    return WithAggregate(std::make_shared<PatternAggregationSpec<V>>(
        name, std::move(initial), std::move(reduce_fn),
        std::move(post_filter)));
  }

  /// W5: chains the current workflow fragment `times` more times
  /// (Explore(0) is the identity). Keeps iterative applications concise —
  /// e.g. cliques: vfractoid.Expand(1).Filter(c).Explore(k - 1).
  Fractoid Explore(uint32_t times) const;

  // --- Output operators (Fig. 5) ------------------------------------------

  /// Compiles, executes all (non-cached) steps and returns everything.
  /// Implemented in executor.cc.
  ExecutionResult Execute(const ExecutionConfig& config = {}) const;

  /// Number of subgraphs reaching the end of the workflow.
  uint64_t CountSubgraphs(const ExecutionConfig& config = {}) const;

  /// The subgraphs themselves (sets collect_subgraphs).
  std::vector<Subgraph> CollectSubgraphs(
      const ExecutionConfig& config = {}) const;

  /// Streams every result subgraph to `sink` as it is found (the paper's
  /// RDD output without materialization). `sink` must be thread-safe; the
  /// reference is only valid during the call. Returns the total count.
  uint64_t ForEachSubgraph(const std::function<void(const Subgraph&)>& sink,
                           const ExecutionConfig& config = {}) const;

  // --- Introspection -------------------------------------------------------

  const std::vector<Primitive>& primitives() const { return primitives_; }
  const std::shared_ptr<const Graph>& graph() const { return graph_; }
  const std::shared_ptr<const ExtensionStrategy>& strategy() const {
    return strategy_;
  }
  const std::shared_ptr<ExecutionState>& state() const { return state_; }

  /// Number of E primitives (the maximum enumeration depth).
  uint32_t NumExpansions() const;

 private:
  Fractoid WithAggregationFilter(const std::string& name,
                                 AggregationFilterFn filter) const;
  Fractoid WithAggregate(
      std::shared_ptr<const AggregationSpecBase> spec) const;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const ExtensionStrategy> strategy_;
  std::vector<Primitive> primitives_;
  std::shared_ptr<ExecutionState> state_;
};

}  // namespace fractal

#endif  // FRACTAL_CORE_FRACTOID_H_
