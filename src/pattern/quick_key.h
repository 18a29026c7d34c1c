// QuickPatternKey: the "quick pattern" of a subgraph (its labeled pattern
// over positions in addition order, paper §2.1 / Arabesque's two-level
// aggregation) packed into a fixed-width, trivially copyable value. It is
// the per-subgraph aggregation key of motif counting and FSM: building,
// hashing and comparing it touch no heap, so the key path of pattern
// aggregation is allocation-free (DESIGN.md §13).
//
// Layout (152 bytes, unused slots always zero so whole-key comparison is
// exact):
//   num_vertices, num_edges      counts (<= kMaxVertices, <= kMaxEdges)
//   adjacency                    bit PairIndex(i, j) set iff positions i < j
//                                are adjacent (upper triangle, 28 bits)
//   vertex_labels[i]             label of position i
//   edge_labels[r]               label of the r-th set adjacency bit, in
//                                ascending pair-index order
//
// Capacity: kMaxVertices positions, hence at most C(8, 2) = 28 edges. The
// executor rejects a pattern aggregation whose subgraphs could exceed it
// before enumeration starts (core/executor.cc), so hot-path callers never
// see an oversized subgraph.
#ifndef FRACTAL_PATTERN_QUICK_KEY_H_
#define FRACTAL_PATTERN_QUICK_KEY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "graph/graph.h"
#include "pattern/pattern.h"
#include "util/hot_annotations.h"

namespace fractal {

struct QuickPatternKey {
  static constexpr uint32_t kMaxVertices = 8;
  static constexpr uint32_t kMaxEdges = kMaxVertices * (kMaxVertices - 1) / 2;
  // Byte offsets of the label arrays (checked against offsetof below).
  static constexpr size_t kVertexLabelOffset = 8;
  static constexpr size_t kEdgeLabelOffset = 8 + 4 * kMaxVertices;

  uint8_t num_vertices = 0;
  uint8_t num_edges = 0;
  uint16_t reserved = 0;  // always 0 (keeps the header one hashable word)
  uint32_t adjacency = 0;
  Label vertex_labels[kMaxVertices] = {};
  Label edge_labels[kMaxEdges] = {};

  /// Bit index of the position pair {i, j}, i < j (column-major upper
  /// triangle: all pairs of position j precede those of j + 1).
  static constexpr uint32_t PairIndex(uint32_t i, uint32_t j) {
    return j * (j - 1) / 2 + i;
  }

  /// Fills edge_labels from labels indexed by pair index, for the pairs set
  /// in `adjacency` (the packing step shared by every builder).
  FRACTAL_HOT void PackEdgeLabels(const Label* labels_by_pair) {
    uint32_t rank = 0;
    for (uint32_t bits = adjacency; bits != 0; bits &= bits - 1) {
      edge_labels[rank++] = labels_by_pair[__builtin_ctz(bits)];
    }
  }

  /// Packs `pattern` (CHECKs that it fits the capacity).
  static QuickPatternKey FromPattern(const Pattern& pattern);

  /// The equivalent heap Pattern (same positions, labels and edges).
  Pattern ToPattern() const;

  /// Hashes the header and the used label slots (unused slots are zero,
  /// so equal keys hash equally).
  FRACTAL_HOT uint64_t Hash() const {
    const auto* bytes = reinterpret_cast<const unsigned char*>(this);
    uint64_t h = Mix(0x9E3779B97F4A7C15ull ^ Word(bytes, 0));
    const uint32_t vertex_words = (num_vertices + 1u) / 2;
    for (uint32_t w = 0; w < vertex_words; ++w) {
      h = Mix(h ^ Word(bytes, kVertexLabelOffset + 8 * w));
    }
    const uint32_t edge_words = (num_edges + 1u) / 2;
    for (uint32_t w = 0; w < edge_words; ++w) {
      h = Mix(h ^ Word(bytes, kEdgeLabelOffset + 8 * w));
    }
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ull;
    return h ^ (h >> 32);
  }

  friend bool operator==(const QuickPatternKey& a, const QuickPatternKey& b) {
    return std::memcmp(&a, &b, sizeof(QuickPatternKey)) == 0;
  }

 private:
  static uint64_t Word(const unsigned char* bytes, size_t offset) {
    uint64_t word;
    std::memcpy(&word, bytes + offset, sizeof(word));
    return word;
  }
  static uint64_t Mix(uint64_t x) {
    x *= 0xBF58476D1CE4E5B9ull;
    return x ^ (x >> 31);
  }
};

static_assert(std::is_trivially_copyable_v<QuickPatternKey>);
static_assert(std::has_unique_object_representations_v<QuickPatternKey>,
              "byte-wise equality and hashing need a padding-free layout");
static_assert(offsetof(QuickPatternKey, vertex_labels) ==
              QuickPatternKey::kVertexLabelOffset);
static_assert(offsetof(QuickPatternKey, edge_labels) ==
              QuickPatternKey::kEdgeLabelOffset);
static_assert(sizeof(QuickPatternKey) ==
              8 + 4 * (QuickPatternKey::kMaxVertices +
                       QuickPatternKey::kMaxEdges));

}  // namespace fractal

#endif  // FRACTAL_PATTERN_QUICK_KEY_H_
