// Reference (pre-kernel) extension strategies: the straightforward
// per-candidate-rescan implementations the set-algebra kernels in
// extension.cc replaced. Kept as an executable specification:
//   * the differential sweep in tests/property_test.cc asserts the kernel
//     strategies produce bit-identical extension sequences and identical
//     extension-test (EC) charges against these;
//   * bench/bench_micro.cc A/Bs kernel vs reference throughput;
//   * setting FRACTAL_REFERENCE_EXTENSIONS routes the strategy factories
//     (extension.h) here for whole-application comparison runs.
//
// These deliberately avoid the hub adjacency bitmaps (they test adjacency
// with Graph::EdgeBetween's binary search, as the seed implementation did),
// so an A/B run measures the full data-plane delta, not just loop fusion.
#ifndef FRACTAL_ENUMERATE_REFERENCE_EXTENSION_H_
#define FRACTAL_ENUMERATE_REFERENCE_EXTENSION_H_

#include "enumerate/extension.h"

namespace fractal {

/// Pre-kernel vertex-induced extension: per-position neighbor scan with a
/// FirstAttachment rescan and a canonicality rescan per candidate.
class ReferenceVertexInducedStrategy : public ExtensionStrategy {
 public:
  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx,
                         std::vector<uint32_t>* out) const override;
  void Apply(const Graph& graph, uint32_t extension,
             Subgraph* subgraph) const override;
};

/// Pre-kernel edge-induced extension: nested endpoint/incident scans with a
/// first-touch rescan per candidate.
class ReferenceEdgeInducedStrategy : public ExtensionStrategy {
 public:
  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx,
                         std::vector<uint32_t>* out) const override;
  void Apply(const Graph& graph, uint32_t extension,
             Subgraph* subgraph) const override;
  uint32_t MaxVerticesAt(uint32_t depth) const override {
    return depth == 0 ? 0 : depth + 1;
  }
};

/// Pre-kernel clique extension: per-candidate adjacency probes against every
/// non-pivot clique vertex.
class ReferenceKClistStrategy : public ExtensionStrategy {
 public:
  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx,
                         std::vector<uint32_t>* out) const override;
  void Apply(const Graph& graph, uint32_t extension,
             Subgraph* subgraph) const override;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_REFERENCE_EXTENSION_H_
