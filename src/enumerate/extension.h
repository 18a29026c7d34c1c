// Extension strategies: the E primitive of the Fractal computation model
// (paper §3, Fig. 1). A strategy computes, for a given subgraph, the set of
// extension candidates (encoded as uint32 ids — vertex ids or edge ids
// depending on the strategy) and knows how to apply/undo a candidate on a
// subgraph. Strategies are immutable and shared across threads; all mutable
// state lives in the subgraph and the per-thread ExtensionContext.
//
// Duplicate-freedom:
//   * vertex- and edge-induced modes use Arabesque-style canonical subgraph
//     checking: each connected (vertex|edge) set is produced by exactly one
//     addition order (the word must start at its minimum element, and each
//     appended element must exceed every element that follows its first
//     attachment point in the word);
//   * pattern-induced mode uses Grochow–Kellis symmetry breaking on the
//     reference pattern's automorphisms.
#ifndef FRACTAL_ENUMERATE_EXTENSION_H_
#define FRACTAL_ENUMERATE_EXTENSION_H_

#include <memory>
#include <vector>

#include "enumerate/scratch_arena.h"
#include "enumerate/subgraph.h"
#include "graph/adjacency.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "pattern/automorphism.h"
#include "pattern/pattern.h"
#include "util/hot_annotations.h"

namespace fractal {

/// Per-thread counters and scratch space charged/used by extension
/// computation. `extension_tests` is the paper's EC (extension cost) metric
/// (§4.3): one unit per candidate test performed while computing extension
/// sets. `arena` feeds the set-algebra kernels' intermediate buffers and the
/// DFS expansion buffers (one context per execution thread, so the arena is
/// single-owner; see scratch_arena.h for the ownership rules).
///
/// The other tallies are the plain, thread-owned halves of shared registry
/// metrics (DESIGN.md §6): the DFS writes only here, and FlushCounters folds
/// them into the registry — once per thread per step from
/// FractoidStepTask::FinishThread, and on destruction for every other user.
struct ExtensionContext {
  uint64_t extension_tests = 0;
  /// Set-algebra kernel calls ("enumerate.intersections"/"galloped").
  adjacency::KernelCounts kernels;
  /// Extension-set size per enumerator refill ("enumerate.batch_size").
  obs::LocalHistogram batch_sizes;
  ScratchArena arena;

  ExtensionContext() = default;
  ExtensionContext(const ExtensionContext&) = delete;
  ExtensionContext& operator=(const ExtensionContext&) = delete;
  ~ExtensionContext() { FlushCounters(); }

  /// Folds the kernel, batch-size and scratch tallies into the registry
  /// and zeroes them. `extension_tests` is not touched: the runtime credits
  /// it from ThreadStats at the step barrier.
  void FlushCounters();
};

/// Strategy interface (one implementation per fractoid type).
class ExtensionStrategy {
 public:
  virtual ~ExtensionStrategy() = default;

  /// Appends the extension candidates of `subgraph` to `out` (cleared
  /// first). With an empty subgraph this yields the root extensions: all
  /// active vertices (vertex/pattern modes) or all edges (edge mode).
  /// Hot-path root: called once per DFS node (DESIGN.md §9).
  FRACTAL_HOT virtual void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const = 0;

  /// Pushes candidate `extension` onto the subgraph. Hot-path root.
  FRACTAL_HOT virtual void Apply(const Graph& graph, uint32_t extension,
                                 Subgraph* subgraph) const = 0;

  /// Undoes the most recent Apply. Hot-path root.
  FRACTAL_HOT virtual void Undo(const Graph& /*graph*/,
                                Subgraph* subgraph) const {
    subgraph->Pop();
  }

  /// Maximum subgraph depth this strategy can extend to, or 0 for unbounded
  /// (pattern-induced stops at the pattern size).
  virtual uint32_t MaxDepth() const { return 0; }

  /// Most vertices a subgraph can have after `depth` extensions: one per
  /// extension for vertex-style strategies (edge-induced overrides).
  virtual uint32_t MaxVerticesAt(uint32_t depth) const { return depth; }
};

/// Vertex-induced extension with canonical subgraph checking. Used by
/// motifs, cliques, triangles (Listings 1-2).
class VertexInducedStrategy : public ExtensionStrategy {
 public:
  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         Subgraph* subgraph) const override;
};

/// Edge-induced extension with canonical subgraph checking. Used by FSM and
/// keyword search (Listings 3-4).
class EdgeInducedStrategy : public ExtensionStrategy {
 public:
  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         Subgraph* subgraph) const override;
  /// The first edge brings two vertices, every later one at most one.
  uint32_t MaxVerticesAt(uint32_t depth) const override {
    return depth == 0 ? 0 : depth + 1;
  }
};

/// Whether a pattern match requires the absence of non-pattern edges.
enum class MatchSemantics {
  /// Standard subgraph querying (Listing 5): the found subgraph consists of
  /// the matched vertices plus the images of the pattern's edges; extra
  /// graph edges between matched vertices are allowed.
  kSubgraph,
  /// Induced matching: matched vertices must have edges exactly where the
  /// pattern does (motif-instance retrieval).
  kInduced,
};

/// Pattern-induced extension guided by a reference pattern with symmetry
/// breaking. Used by subgraph querying (Listing 5).
class PatternInducedStrategy : public ExtensionStrategy {
 public:
  explicit PatternInducedStrategy(
      Pattern pattern, MatchSemantics semantics = MatchSemantics::kSubgraph);

  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         Subgraph* subgraph) const override;
  uint32_t MaxDepth() const override { return pattern_.NumVertices(); }

  const Pattern& pattern() const { return pattern_; }

  /// Matching order: plan_order_[k] = original pattern position matched at
  /// step k. Exposed for tests.
  const std::vector<uint32_t>& plan_order() const { return plan_order_; }
  const std::vector<SymmetryCondition>& plan_conditions() const {
    return plan_conditions_;
  }

 private:
  Pattern pattern_;                    // original position numbering
  MatchSemantics semantics_;
  std::vector<uint32_t> plan_order_;   // step -> original position
  std::vector<uint32_t> plan_index_;   // original position -> step
  // Conditions remapped to plan steps: match[smaller] < match[larger].
  std::vector<SymmetryCondition> plan_conditions_;
  // For each step k >= 1: plan steps j < k that must be graph-adjacent to
  // the vertex matched at k, with the required edge label.
  struct RequiredNeighbor {
    uint32_t step;
    Label edge_label;
  };
  std::vector<std::vector<RequiredNeighbor>> required_neighbors_;
  Label FirstLabel() const { return pattern_.VertexLabel(plan_order_[0]); }
};

/// Optimized clique extension in the spirit of KClist (paper Appendix B,
/// Listing 6-7): candidates are computed by ordered sorted-adjacency
/// intersection (u must exceed the last clique vertex and be adjacent to all
/// clique vertices), avoiding the generic canonical-check machinery.
class KClistStrategy : public ExtensionStrategy {
 public:
  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         Subgraph* subgraph) const override;
};

/// True when the FRACTAL_REFERENCE_EXTENSIONS environment variable is set
/// (non-empty, not "0"): the factories below then return the pre-kernel
/// reference strategies from reference_extension.h instead of the fused
/// ones. The A/B path for benchmarking and differential testing.
bool UseReferenceExtensions();

/// Strategy factories honoring FRACTAL_REFERENCE_EXTENSIONS. Application
/// code (core/context.cc) goes through these; tests that need a specific
/// implementation construct it directly.
std::shared_ptr<ExtensionStrategy> MakeVertexInducedStrategy();
std::shared_ptr<ExtensionStrategy> MakeEdgeInducedStrategy();
std::shared_ptr<ExtensionStrategy> MakeKClistStrategy();

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_EXTENSION_H_
