// Frequent subgraph mining (paper §2.2, Listing 3): finds all edge-induced
// patterns whose minimum image-based (MNI) support meets a threshold. The
// MNI support of a pattern [Bringmann & Nijssen 2008] is the minimum, over
// pattern positions, of the number of distinct graph vertices appearing at
// that position across all embeddings — anti-monotonic, so frequent
// (k+1)-edge patterns can only extend frequent k-edge patterns (the
// aggregation filter of the workflow).
//
// The driver mirrors Listing 3: a bootstrap step computes frequent single
// edges; each following iteration appends filter -> expand -> aggregate to
// the fractoid and re-executes it. Thanks to cached aggregations, each
// execution only runs the newly appended fractal step (paper §4.1).
#ifndef FRACTAL_APPS_FSM_H_
#define FRACTAL_APPS_FSM_H_

#include <cstdint>
#include <vector>

#include "core/context.h"
#include "core/pattern_aggregation.h"
#include "runtime/telemetry.h"
#include "pattern/canonical.h"
#include "pattern/pattern.h"
#include "util/hot_annotations.h"
#include "util/status.h"

namespace fractal {

/// MNI support accumulator (the paper's DomainSupport): one vertex-id domain
/// per canonical pattern orbit. Domains are append-only vectors compacted
/// (sorted, deduplicated) whenever they fill, so a domain holds at most
/// about twice its distinct vertices and recording an embedding allocates
/// only on amortized growth (the SNIPPETS.md embedding-list domains).
class DomainSupport {
 public:
  DomainSupport() = default;
  explicit DomainSupport(uint32_t threshold) : threshold_(threshold) {}

  /// Records one embedding: subgraph vertex at position i lands in the
  /// domain of canonical position `canonical.permutation[i]`.
  void AddEmbedding(const Subgraph& subgraph, const CanonicalResult& canonical);

  /// Hot-path form: `canonical_position[i]` is the canonical position of
  /// subgraph position i, `orbit` the class's orbit representatives.
  FRACTAL_HOT void AddEmbedding(const Subgraph& subgraph,
                                const uint8_t* canonical_position,
                                const std::vector<uint32_t>& orbit);

  /// Folds `other` into this (the aggregation's reduce function); leaves
  /// every domain compacted.
  void Merge(DomainSupport&& other);

  /// min over positions of |domain| — the MNI support.
  uint64_t Support() const;

  bool HasEnoughSupport() const { return Support() >= threshold_; }

  uint32_t threshold() const { return threshold_; }

  uint64_t ApproxBytes() const;

  /// Aggregation memory-accounting hook (core/aggregation.h HeapBytesOf):
  /// heap owned by the domains, excluding sizeof(DomainSupport) which the
  /// storage counts inline.
  uint64_t ApproxHeapBytes() const {
    return ApproxBytes() - sizeof(DomainSupport);
  }

 private:
  struct Domain {
    // Recycled: grows geometrically in Record, compacted in place.
    FRACTAL_ARENA_OUT std::vector<VertexId> domain_vertices;
    uint32_t compacted = 0;  // domain_vertices[0, compacted) sorted, unique
  };

  FRACTAL_HOT static void Record(Domain& domain, VertexId vertex);
  static void Compact(Domain& domain);
  static uint64_t DistinctCount(const Domain& domain);

  uint32_t threshold_ = 0;
  std::vector<Domain> domains_;
};

/// In-place pattern fold of FSM (core/pattern_aggregation.h).
FRACTAL_HOT inline void FoldPatternMatch(DomainSupport& support,
                                         const PatternMatch& match) {
  support.AddEmbedding(match.subgraph, match.mapping.position,
                       match.canonical.orbit);
}

struct FsmResult {
  /// OK, or why mining stopped before running out of frequent patterns:
  /// the next level's patterns would exceed the quick-pattern key
  /// (CheckAggregationCapacity). `frequent` then holds every level mined.
  Status status;
  /// All frequent patterns with their exact MNI supports, in discovery
  /// order (by number of edges, then unspecified within a level).
  std::vector<std::pair<Pattern, uint64_t>> frequent;
  uint32_t iterations = 0;  // number of expansion rounds executed
  double seconds = 0;
  uint64_t total_work_units = 0;
  uint64_t peak_state_bytes = 0;
  /// Telemetry of every fractal step executed across all iterations.
  std::vector<StepTelemetry> step_telemetry;
  /// Edges of the graph the iterations actually mined (== the input's edge
  /// count unless transparent graph reduction shrank it).
  uint32_t mined_graph_edges = 0;
};

struct FsmOptions {
  uint32_t min_support = 1;
  /// Maximum pattern size in edges (0 = mine until nothing is frequent).
  uint32_t max_edges = 0;
  /// Transparent graph reduction (paper §4.3): after the bootstrap step,
  /// drop every edge whose single-edge pattern is infrequent and mine the
  /// remaining iterations on the reduced graph. Sound by anti-monotonicity:
  /// every embedding of a frequent pattern consists solely of edges whose
  /// own patterns are frequent, so frequent sets and supports are
  /// unchanged (asserted by tests).
  bool transparent_graph_reduction = false;
};

/// Runs FSM with MNI support >= `min_support`, mining patterns with at most
/// `max_edges` edges (0 = unbounded: runs until no pattern is frequent or
/// the patterns outgrow the quick-pattern key, see FsmResult::status).
FsmResult RunFsm(const FractalGraph& graph, uint32_t min_support,
                 uint32_t max_edges, const ExecutionConfig& config = {});

/// Full-control variant (reduction etc.).
FsmResult RunFsmWithOptions(const FractalGraph& graph,
                            const FsmOptions& options,
                            const ExecutionConfig& config = {});

}  // namespace fractal

#endif  // FRACTAL_APPS_FSM_H_
