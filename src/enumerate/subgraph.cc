#include "enumerate/subgraph.h"

#include <algorithm>
#include <sstream>

namespace fractal {

Subgraph::Subgraph(const Subgraph& other)
    : vertices_(other.vertices_),
      edges_(other.edges_),
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
      records_.capacity() < other.records_.size()) {
    // A denser subgraph than any this frame has held: grow the recycled
    // word storage once to the new high-water mark. With ample capacity the
    // copy-assignments below never reallocate.
    AllocGuard::Allow allow("prefix storage high-water-mark growth");
    vertices_.reserve(other.vertices_.size());
    edges_.reserve(other.edges_.size());
    records_.reserve(other.records_.size());
  }
  vertices_ = other.vertices_;
  edges_ = other.edges_;
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
  records_.clear();
}

void Subgraph::RebuildBits() {
  std::fill(vertex_bits_.begin(), vertex_bits_.end(), 0);
  std::fill(edge_bits_.begin(), edge_bits_.end(), 0);
  for (const VertexId v : vertices_) SetBit(vertex_bits_, v);
  for (const EdgeId e : edges_) SetBit(edge_bits_, e);
}

FRACTAL_HOT void Subgraph::ReserveForPush(size_t max_new_edges) {
  if (vertices_.size() + 2 <= vertices_.capacity() &&
      records_.size() + 1 <= records_.capacity() &&
      edges_.size() + max_new_edges <= edges_.capacity()) {
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
}

FRACTAL_HOT void Subgraph::PushVertexInduced(const Graph& graph, VertexId v) {
  FRACTAL_DCHECK(!ContainsVertex(v));
  // Every existing vertex contributes at most one edge to v.
  ReserveForPush(vertices_.size());
  PushRecord record;
  record.vertices_added = 1;
  // Add edges in the order of the existing vertex word so that the edge word
  // is a deterministic function of the vertex word.
  for (const VertexId existing : vertices_) {
    if (const auto edge = graph.EdgeBetween(existing, v)) {
      edges_.push_back(*edge);
      SetBit(edge_bits_, *edge);
      ++record.edges_added;
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
  edges_.push_back(e);
  SetBit(edge_bits_, e);
  if (!ContainsVertex(endpoints.src)) {
    vertices_.push_back(endpoints.src);
    SetBit(vertex_bits_, endpoints.src);
    ++record.vertices_added;
  }
  if (!ContainsVertex(endpoints.dst)) {
    vertices_.push_back(endpoints.dst);
    SetBit(vertex_bits_, endpoints.dst);
    ++record.vertices_added;
  }
  records_.push_back(record);
}

FRACTAL_HOT void Subgraph::PushVertexWithEdges(VertexId v,
                                               std::span<const EdgeId> edges) {
  FRACTAL_DCHECK(!ContainsVertex(v));
  ReserveForPush(edges.size());
  PushRecord record;
  record.vertices_added = 1;
  for (const EdgeId e : edges) {
    FRACTAL_DCHECK(!ContainsEdge(e));
    edges_.push_back(e);
    SetBit(edge_bits_, e);
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
  for (const EdgeId e : edges_) {
    const EdgeEndpoints& endpoints = graph.Endpoints(e);
    uint32_t a = 0;
    uint32_t b = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (vertices_[i] == endpoints.src) a = i;
      if (vertices_[i] == endpoints.dst) b = i;
    }
    const uint32_t pair =
        QuickPatternKey::PairIndex(std::min(a, b), std::max(a, b));
    key.adjacency |= 1u << pair;
    labels_by_pair[pair] = graph.GetEdgeLabel(e);
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
