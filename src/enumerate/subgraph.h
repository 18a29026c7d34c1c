// Subgraph: the unit of GPM computation (paper Definition 2) — a connected
// subgraph of the input graph represented by its vertex word and edge word
// in *addition order*. Designed for DFS enumeration: Push/Pop operations are
// O(k) and every push is recorded so it can be undone exactly.
//
// Membership bitset invariant (DESIGN.md §8): vertex_bits_ / edge_bits_
// mirror the vertex and edge words at all times — bit v is set iff v appears
// in the word. The bitsets grow lazily to the highest id ever inserted (not
// |V|), and copy construction/assignment touch only the O(k) set bits, so
// prefix snapshots taken by the enumerator and the steal path stay O(k).
#ifndef FRACTAL_ENUMERATE_SUBGRAPH_H_
#define FRACTAL_ENUMERATE_SUBGRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"
#include "pattern/quick_key.h"
#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {

/// Mutable subgraph with push/pop growth. Not thread-safe (one per
/// execution thread); enumerator prefixes snapshot it by copy.
class Subgraph {
 public:
  Subgraph() = default;

  // Copies transfer the words and rebuild/clear bits in O(k); the bitset
  // storage itself is reused on assignment (no O(|V|) work, no shrink).
  Subgraph(const Subgraph& other);
  Subgraph& operator=(const Subgraph& other);
  Subgraph(Subgraph&&) = default;
  Subgraph& operator=(Subgraph&&) = default;

  void Clear();

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vertices_.size());
  }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }
  bool Empty() const { return vertices_.empty() && edges_.empty(); }

  std::span<const VertexId> Vertices() const { return vertices_; }
  std::span<const EdgeId> Edges() const { return edges_; }

  VertexId VertexAt(uint32_t position) const { return vertices_[position]; }
  EdgeId EdgeAt(uint32_t position) const { return edges_[position]; }
  VertexId LastVertex() const { return vertices_.back(); }
  EdgeId LastEdge() const { return edges_.back(); }

  /// O(1) membership via the incremental bitsets.
  bool ContainsVertex(VertexId v) const { return TestBit(vertex_bits_, v); }
  bool ContainsEdge(EdgeId e) const { return TestBit(edge_bits_, e); }

  /// Vertex-induced push: appends v plus every edge connecting v to the
  /// current vertices (Fig. 1, vertex-induced extension). Hot-path root.
  FRACTAL_HOT void PushVertexInduced(const Graph& graph, VertexId v);

  /// Edge-induced push: appends edge e plus its endpoints that are not yet
  /// in the subgraph (Fig. 1, edge-induced extension). Hot-path root.
  FRACTAL_HOT void PushEdgeInduced(const Graph& graph, EdgeId e);

  /// Pattern-induced push: appends v plus exactly the given incident edges
  /// (the ones the reference pattern requires). Hot-path root.
  FRACTAL_HOT void PushVertexWithEdges(VertexId v,
                                       std::span<const EdgeId> edges);

  /// Undoes the most recent push (any kind). Hot-path root.
  FRACTAL_HOT void Pop();

  /// Number of pushes currently applied.
  uint32_t Depth() const { return static_cast<uint32_t>(records_.size()); }

  /// The packed quick pattern (pattern/quick_key.h): this subgraph's
  /// labeled pattern over positions in addition order, built without
  /// allocating — the per-subgraph key of pattern aggregation. The subgraph
  /// must fit the key (at most QuickPatternKey::kMaxVertices vertices).
  FRACTAL_HOT QuickPatternKey QuickKey(const Graph& graph) const;

  /// QuickKey(graph).ToPattern(): the heap form of the quick pattern, for
  /// oracles, baselines and tests.
  Pattern QuickPattern(const Graph& graph) const {
    return QuickKey(graph).ToPattern();
  }

  std::string ToString() const;

  friend bool operator==(const Subgraph& a, const Subgraph& b) {
    return a.vertices_ == b.vertices_ && a.edges_ == b.edges_;
  }

 private:
  friend class SubgraphCodec;

  struct PushRecord {
    uint8_t vertices_added = 0;
    uint8_t edges_added = 0;
  };

  static bool TestBit(const std::vector<uint64_t>& bits, uint32_t id) {
    const size_t word = id >> 6;
    return word < bits.size() && ((bits[word] >> (id & 63)) & 1) != 0;
  }
  FRACTAL_HOT static void SetBit(FRACTAL_ARENA_OUT std::vector<uint64_t>& bits,
                                 uint32_t id) {
    const size_t word = id >> 6;
    if (word >= bits.size()) {
      FRACTAL_HOT_ESCAPE("bitset grows to the highest id ever seen, then "
                         "stays at capacity for the rest of the step");
      AllocGuard::Allow allow("bitset high-water-mark growth");
      bits.resize(word + 1, 0);
    }
    bits[word] |= uint64_t{1} << (id & 63);
  }
  static void ClearBit(std::vector<uint64_t>& bits, uint32_t id) {
    const size_t word = id >> 6;
    if (word < bits.size()) bits[word] &= ~(uint64_t{1} << (id & 63));
  }

  /// Recomputes both bitsets from the words (used after codec decode and by
  /// the copy operations).
  void RebuildBits();

  /// Secures headroom for one push (<= 2 vertices, 1 record, max_new_edges
  /// edges) so the appends in the Push* bodies never reallocate; amortized
  /// high-water-mark growth of the recycled words happens here, under an
  /// AllocGuard::Allow.
  FRACTAL_HOT void ReserveForPush(size_t max_new_edges);

  // Recycled storage: the words and bitsets keep their grown capacity across
  // Clear/assignment (class comment), so amortized growth on them is part of
  // the zero-steady-state-allocation design — hence FRACTAL_ARENA_OUT.
  FRACTAL_ARENA_OUT std::vector<VertexId> vertices_;
  FRACTAL_ARENA_OUT std::vector<EdgeId> edges_;
  FRACTAL_ARENA_OUT std::vector<PushRecord> records_;
  // One bit per id present in the corresponding word; see class comment.
  FRACTAL_ARENA_OUT std::vector<uint64_t> vertex_bits_;
  FRACTAL_ARENA_OUT std::vector<uint64_t> edge_bits_;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_SUBGRAPH_H_
