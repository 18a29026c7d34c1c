#include "enumerate/subgraph.h"

#include <algorithm>
#include <sstream>

namespace fractal {

Subgraph::Subgraph(const Subgraph& other)
    : vertices_(other.vertices_),
      edges_(other.edges_),
      edge_pairs_(other.edge_pairs_),
      records_(other.records_) {
  RebuildBits();
}

Subgraph& Subgraph::operator=(const Subgraph& other) {
  if (this == &other) return *this;
  // Clear only the bits we set (O(k)), then adopt the new words. The bitset
  // storage is kept so steady-state prefix assignment allocates nothing.
  for (const VertexId v : vertices_) ClearBit(vertex_bits_, v);
  for (const EdgeId e : edges_) ClearBit(edge_bits_, e);
  if (vertices_.capacity() < other.vertices_.size() ||
      edges_.capacity() < other.edges_.size() ||
      edge_pairs_.capacity() < other.edges_.size() ||
      records_.capacity() < other.records_.size()) {
    // A denser subgraph than any this frame has held: grow the recycled
    // word storage once to the new high-water mark. With ample capacity the
    // copy-assignments below never reallocate.
    AllocGuard::Allow allow("prefix storage high-water-mark growth");
    vertices_.reserve(other.vertices_.size());
    edges_.reserve(other.edges_.size());
    edge_pairs_.reserve(other.edges_.size());
    records_.reserve(other.records_.size());
  }
  vertices_ = other.vertices_;
  edges_ = other.edges_;
  edge_pairs_ = other.edge_pairs_;
  records_ = other.records_;
  for (const VertexId v : vertices_) SetBit(vertex_bits_, v);
  for (const EdgeId e : edges_) SetBit(edge_bits_, e);
  return *this;
}

void Subgraph::Clear() {
  for (const VertexId v : vertices_) ClearBit(vertex_bits_, v);
  for (const EdgeId e : edges_) ClearBit(edge_bits_, e);
  vertices_.clear();
  edges_.clear();
  edge_pairs_.clear();
  records_.clear();
}

bool Subgraph::RebuildBits() {
  std::fill(vertex_bits_.begin(), vertex_bits_.end(), 0);
  std::fill(edge_bits_.begin(), edge_bits_.end(), 0);
  bool distinct = true;
  for (const VertexId v : vertices_) {
    distinct = distinct && !TestBit(vertex_bits_, v);
    SetBit(vertex_bits_, v);
  }
  for (const EdgeId e : edges_) {
    distinct = distinct && !TestBit(edge_bits_, e);
    SetBit(edge_bits_, e);
  }
  return distinct;
}

bool Subgraph::RecordsMatchWords() const {
  if (edge_pairs_.size() != edges_.size()) return false;
  uint32_t num_vertices = 0;
  size_t edge = 0;
  uint32_t seen_pairs = 0;
  for (const PushRecord& record : records_) {
    if (record.vertices_added > 2 ||
        edge + record.edges_added > edges_.size()) {
      return false;
    }
    num_vertices += record.vertices_added;
    for (uint32_t k = 0; k < record.edges_added; ++k, ++edge) {
      const uint32_t pair = edge_pairs_[edge];
      if (num_vertices > QuickPatternKey::kMaxVertices) {
        if (pair != kNoPair) return false;
        continue;
      }
      // PairIndex(i, j) < PairIndex(0, num_vertices) iff j < num_vertices.
      if (pair >= QuickPatternKey::PairIndex(0, num_vertices)) return false;
      uint32_t j = 1;
      while (QuickPatternKey::PairIndex(0, j + 1) <= pair) ++j;
      const uint32_t i = pair - QuickPatternKey::PairIndex(0, j);
      // An edge pushed with new vertices touches them: a one-vertex push's
      // edges end at that vertex, a two-vertex push's edge joins the two.
      if (record.vertices_added >= 1 && j != num_vertices - 1) return false;
      if (record.vertices_added == 2 && i != num_vertices - 2) return false;
      // A simple graph has at most one edge per vertex pair.
      if ((seen_pairs >> pair) & 1) return false;
      seen_pairs |= 1u << pair;
    }
  }
  return num_vertices == vertices_.size() && edge == edges_.size();
}

FRACTAL_HOT void Subgraph::ReserveForPush(size_t max_new_edges) {
  if (vertices_.size() + 2 <= vertices_.capacity() &&
      records_.size() + 1 <= records_.capacity() &&
      edges_.size() + max_new_edges <= edges_.capacity() &&
      edge_pairs_.size() + max_new_edges <= edge_pairs_.capacity()) {
    return;
  }
  FRACTAL_HOT_ESCAPE("word storage grows to the frame's densest subgraph, "
                     "then stays at capacity");
  AllocGuard::Allow allow("subgraph word high-water-mark growth");
  const auto grow = [](auto& v, size_t needed) {
    if (v.capacity() < needed) {
      const size_t doubled = v.capacity() * 2;
      v.reserve(needed > doubled ? needed : doubled);
    }
  };
  grow(vertices_, vertices_.size() + 2);
  grow(records_, records_.size() + 1);
  grow(edges_, edges_.size() + max_new_edges);
  grow(edge_pairs_, edge_pairs_.size() + max_new_edges);
}

FRACTAL_HOT void Subgraph::PushVertexInduced(const Graph& graph, VertexId v) {
  FRACTAL_DCHECK(!ContainsVertex(v));
  const uint32_t n = NumVertices();  // v's position
  // Every existing vertex contributes at most one edge to v.
  ReserveForPush(n);
  PushRecord record;
  record.vertices_added = 1;
  // Edges are added in the order of the existing vertex word so that the
  // edge word is a deterministic function of the vertex word.
  if (ScanBeatsSearch(graph.Degree(v), n)) {
    // One pass over v's adjacency; the edge id comes from the parallel
    // incident-edge array. Hits are bucketed by position, then appended in
    // position order.
    const auto neighbors = graph.Neighbors(v);
    const auto incident = graph.IncidentEdges(v);
    EdgeId edge_at[QuickPatternKey::kMaxVertices] = {};
    uint32_t hit_positions = 0;
    uint32_t hits = 0;
    for (size_t k = 0; k < neighbors.size() && hits < n; ++k) {
      if (!ContainsVertex(neighbors[k])) continue;
      const uint32_t i = PositionOf(neighbors[k]);
      hit_positions |= 1u << i;
      edge_at[i] = incident[k];
      ++hits;
    }
    for (uint32_t bits = hit_positions; bits != 0; bits &= bits - 1) {
      const uint32_t i = static_cast<uint32_t>(__builtin_ctz(bits));
      AppendEdge(edge_at[i], PairToNew(i, n));
    }
    record.edges_added = static_cast<uint8_t>(hits);
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      if (const auto edge = graph.EdgeBetween(vertices_[i], v)) {
        AppendEdge(*edge, PairToNew(i, n));
        ++record.edges_added;
      }
    }
  }
  vertices_.push_back(v);
  SetBit(vertex_bits_, v);
  records_.push_back(record);
}

FRACTAL_HOT void Subgraph::PushEdgeInduced(const Graph& graph, EdgeId e) {
  FRACTAL_DCHECK(!ContainsEdge(e));
  ReserveForPush(1);
  const EdgeEndpoints& endpoints = graph.Endpoints(e);
  PushRecord record;
  record.edges_added = 1;
  for (const VertexId endpoint : {endpoints.src, endpoints.dst}) {
    if (!ContainsVertex(endpoint)) {
      vertices_.push_back(endpoint);
      SetBit(vertex_bits_, endpoint);
      ++record.vertices_added;
    }
  }
  uint8_t pair = kNoPair;
  if (NumVertices() <= QuickPatternKey::kMaxVertices) {
    const uint32_t a = PositionOf(endpoints.src);
    const uint32_t b = PositionOf(endpoints.dst);
    pair = static_cast<uint8_t>(
        QuickPatternKey::PairIndex(std::min(a, b), std::max(a, b)));
  }
  AppendEdge(e, pair);
  records_.push_back(record);
}

FRACTAL_HOT void Subgraph::PushVertexWithEdges(
    VertexId v, std::span<const EdgeId> edges,
    std::span<const uint32_t> positions) {
  FRACTAL_DCHECK(!ContainsVertex(v));
  FRACTAL_DCHECK(edges.size() == positions.size());
  const uint32_t n = NumVertices();  // v's position
  ReserveForPush(edges.size());
  PushRecord record;
  record.vertices_added = 1;
  for (size_t k = 0; k < edges.size(); ++k) {
    FRACTAL_DCHECK(positions[k] < n);
    AppendEdge(edges[k], PairToNew(positions[k], n));
    ++record.edges_added;
  }
  vertices_.push_back(v);
  SetBit(vertex_bits_, v);
  records_.push_back(record);
}

FRACTAL_HOT void Subgraph::Pop() {
  FRACTAL_CHECK(!records_.empty()) << "Pop on empty subgraph";
  const PushRecord record = records_.back();
  records_.pop_back();
  for (uint8_t i = 0; i < record.vertices_added; ++i) {
    ClearBit(vertex_bits_, vertices_.back());
    vertices_.pop_back();
  }
  for (uint8_t i = 0; i < record.edges_added; ++i) {
    ClearBit(edge_bits_, edges_.back());
    edges_.pop_back();
    edge_pairs_.pop_back();
  }
}

FRACTAL_HOT QuickPatternKey Subgraph::QuickKey(const Graph& graph) const {
  const uint32_t n = NumVertices();
  FRACTAL_CHECK(n <= QuickPatternKey::kMaxVertices)
      << "subgraph of " << n << " vertices exceeds the quick-pattern key";
  QuickPatternKey key;
  key.num_vertices = static_cast<uint8_t>(n);
  key.num_edges = static_cast<uint8_t>(NumEdges());
  for (uint32_t i = 0; i < n; ++i) {
    key.vertex_labels[i] = graph.VertexLabel(vertices_[i]);
  }
  Label labels_by_pair[QuickPatternKey::kMaxEdges];
  for (size_t k = 0; k < edges_.size(); ++k) {
    const uint32_t pair = edge_pairs_[k];
    FRACTAL_DCHECK(pair < QuickPatternKey::kMaxEdges);
    key.adjacency |= 1u << pair;
    labels_by_pair[pair] = graph.GetEdgeLabel(edges_[k]);
  }
  key.PackEdgeLabels(labels_by_pair);
  return key;
}

std::string Subgraph::ToString() const {
  std::ostringstream out;
  out << "V[";
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (i) out << ' ';
    out << vertices_[i];
  }
  out << "] E[";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i) out << ' ';
    out << edges_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace fractal
