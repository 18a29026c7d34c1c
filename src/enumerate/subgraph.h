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
//
// Position-pair invariant (DESIGN.md §8): edge_pairs_ mirrors the edge word —
// edge_pairs_[k] is QuickPatternKey::PairIndex of the word positions of
// edges_[k]'s endpoints, recorded by the push that added the edge, or kNoPair
// when that push left the subgraph with more than
// QuickPatternKey::kMaxVertices vertices (no key is built for such a
// subgraph, and popping back below the capacity pops those edges first).
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
  /// current vertices, in vertex-word order (Fig. 1, vertex-induced
  /// extension). Finds them by one scan of v's adjacency against the
  /// membership bitset when that is cheaper than one EdgeBetween search per
  /// current vertex (ScanBeatsSearch), by the searches otherwise. Hot-path
  /// root.
  FRACTAL_HOT void PushVertexInduced(const Graph& graph, VertexId v);

  /// Edge-induced push: appends edge e plus its endpoints that are not yet
  /// in the subgraph (Fig. 1, edge-induced extension). Hot-path root.
  FRACTAL_HOT void PushEdgeInduced(const Graph& graph, EdgeId e);

  /// Scan-or-search rule of PushVertexInduced, from degrees alone: a scan
  /// tests each of v's `degree` neighbors against the bitset once; a search
  /// is one EdgeBetween per current vertex. Timing both branches over
  /// degrees 8 to 1024 and 1 to 7 current vertices puts their crossover
  /// between 8 and 32 neighbors per current vertex; in the degree buckets
  /// that straddle 12 per current vertex the two differ by at most 25%
  /// (EXPERIMENTS.md, "The scan-or-search threshold"). Subgraphs past the
  /// key's capacity record no positions, so they keep the search (which
  /// yields word order directly).
  static bool ScanBeatsSearch(uint32_t degree, uint32_t num_vertices) {
    return num_vertices < QuickPatternKey::kMaxVertices &&
           degree <= 12 * num_vertices;
  }

  /// Pattern-induced push: appends v plus exactly the given incident edges
  /// (the ones the reference pattern requires); positions[k] is the word
  /// position of edges[k]'s other endpoint, which the caller already knows.
  /// Hot-path root.
  FRACTAL_HOT void PushVertexWithEdges(VertexId v,
                                       std::span<const EdgeId> edges,
                                       std::span<const uint32_t> positions);

  /// Undoes the most recent push (any kind). Hot-path root.
  FRACTAL_HOT void Pop();

  /// Number of pushes currently applied.
  uint32_t Depth() const { return static_cast<uint32_t>(records_.size()); }

  /// The packed quick pattern (pattern/quick_key.h): this subgraph's
  /// labeled pattern over positions in addition order, built without
  /// allocating from the position pairs the pushes recorded — the
  /// per-subgraph key of pattern aggregation. The subgraph must fit the key
  /// (at most QuickPatternKey::kMaxVertices vertices).
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

  /// edge_pairs_ entry of an edge pushed past the key's vertex capacity.
  static constexpr uint8_t kNoPair = 0xFF;

  /// The pair recorded for an edge from position i to the vertex a push
  /// places at position n: kNoPair once that push leaves the key's
  /// capacity.
  static uint8_t PairToNew(uint32_t i, uint32_t n) {
    return n < QuickPatternKey::kMaxVertices
               ? static_cast<uint8_t>(QuickPatternKey::PairIndex(i, n))
               : kNoPair;
  }

  /// Word position of a member vertex (linear in the word; the callers only
  /// ask while the word fits the key, so at most kMaxVertices entries).
  uint32_t PositionOf(VertexId v) const {
    uint32_t i = 0;
    while (vertices_[i] != v) ++i;
    return i;
  }

  /// Appends e with its recorded position pair (space reserved by
  /// ReserveForPush).
  FRACTAL_HOT void AppendEdge(EdgeId e, uint8_t pair) {
    FRACTAL_DCHECK(!ContainsEdge(e));
    edges_.push_back(e);
    edge_pairs_.push_back(pair);
    SetBit(edge_bits_, e);
  }

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
  /// the copy operations). Returns false if a word repeats an id.
  bool RebuildBits();

  /// Whether the push records account for every word element and
  /// edge_pairs_ is what those pushes could have recorded: each pair names
  /// positions already in the word, touches the vertices its push added,
  /// and appears once; kNoPair exactly past the key's capacity. The codec's
  /// check on a decoded descriptor (the graph is not at hand there, so an
  /// edge's true endpoints are not compared).
  bool RecordsMatchWords() const;

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
  // Parallel to edges_; see the position-pair invariant above.
  FRACTAL_ARENA_OUT std::vector<uint8_t> edge_pairs_;
  FRACTAL_ARENA_OUT std::vector<PushRecord> records_;
  // One bit per id present in the corresponding word; see class comment.
  FRACTAL_ARENA_OUT std::vector<uint64_t> vertex_bits_;
  FRACTAL_ARENA_OUT std::vector<uint64_t> edge_bits_;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_SUBGRAPH_H_
