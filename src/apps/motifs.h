// Motif extraction & counting (paper §2.2, Listing 1): counts the frequency
// of every connected induced k-vertex pattern. Vertex-induced fractoid,
// expand(k), aggregate by canonical pattern with count 1 and sum reduction
// (an in-place pattern aggregation, core/pattern_aggregation.h).
#ifndef FRACTAL_APPS_MOTIFS_H_
#define FRACTAL_APPS_MOTIFS_H_

#include <cstdint>
#include <unordered_map>

#include "core/context.h"
#include "pattern/pattern.h"

namespace fractal {

struct MotifsResult {
  /// canonical pattern -> number of vertex-induced occurrences
  std::unordered_map<Pattern, uint64_t, PatternHash> counts;
  /// Total subgraphs enumerated (sum of counts).
  uint64_t total = 0;
  ExecutionResult execution;
};

/// Builds the motifs fractoid of Listing 1 (without executing it).
Fractoid MotifsFractoid(const FractalGraph& graph, uint32_t k);

/// Runs motif counting for k-vertex motifs.
MotifsResult CountMotifs(const FractalGraph& graph, uint32_t k,
                         const ExecutionConfig& config = {});

}  // namespace fractal

#endif  // FRACTAL_APPS_MOTIFS_H_
