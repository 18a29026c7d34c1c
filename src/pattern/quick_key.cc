#include "pattern/quick_key.h"

#include "util/check.h"

namespace fractal {

QuickPatternKey QuickPatternKey::FromPattern(const Pattern& pattern) {
  FRACTAL_CHECK(pattern.NumVertices() <= kMaxVertices)
      << "pattern of " << pattern.NumVertices()
      << " vertices exceeds the quick-pattern key capacity (" << kMaxVertices
      << ")";
  QuickPatternKey key;
  key.num_vertices = static_cast<uint8_t>(pattern.NumVertices());
  key.num_edges = static_cast<uint8_t>(pattern.NumEdges());
  for (uint32_t v = 0; v < pattern.NumVertices(); ++v) {
    key.vertex_labels[v] = pattern.VertexLabel(v);
  }
  Label labels_by_pair[kMaxEdges];
  for (const PatternEdge& edge : pattern.Edges()) {
    const uint32_t pair = PairIndex(edge.src, edge.dst);
    key.adjacency |= 1u << pair;
    labels_by_pair[pair] = edge.label;
  }
  key.PackEdgeLabels(labels_by_pair);
  return key;
}

Pattern QuickPatternKey::ToPattern() const {
  Pattern pattern;
  for (uint32_t v = 0; v < num_vertices; ++v) {
    pattern.AddVertex(vertex_labels[v]);
  }
  uint32_t rank = 0;
  for (uint32_t j = 1; j < num_vertices; ++j) {
    for (uint32_t i = 0; i < j; ++i) {
      if ((adjacency >> PairIndex(i, j)) & 1u) {
        pattern.AddEdge(i, j, edge_labels[rank++]);
      }
    }
  }
  return pattern;
}

}  // namespace fractal
