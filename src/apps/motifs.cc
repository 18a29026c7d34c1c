#include "apps/motifs.h"


namespace fractal {

Fractoid MotifsFractoid(const FractalGraph& graph, uint32_t k) {
  FRACTAL_CHECK(k >= 1);
  return graph.VFractoid().Expand(k).AggregatePatterns<uint64_t>(
      "motifs", /*initial=*/0,
      /*reduce_fn=*/[](uint64_t& into, uint64_t&& from) { into += from; });
}

MotifsResult CountMotifs(const FractalGraph& graph, uint32_t k,
                         const ExecutionConfig& config) {
  MotifsResult result;
  result.execution = MotifsFractoid(graph, k).Execute(config);
  FRACTAL_CHECK(result.execution.status.ok()) << result.execution.status;
  const auto& storage =
      result.execution.Aggregation<Pattern, uint64_t, PatternHash>("motifs");
  for (const auto& [pattern, count] : storage.entries()) {
    result.counts.emplace(pattern, count);
    result.total += count;
  }
  return result;
}

}  // namespace fractal
