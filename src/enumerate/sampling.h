// Sampling extension strategy — the custom-enumerator use case the paper's
// Appendix B names explicitly ("a specific policy for generating extension
// candidates, such as sampling"). Wraps any base strategy and keeps each
// extension candidate with probability p, decided by a deterministic hash
// of (seed, subgraph content, candidate): the same candidate of the same
// prefix gets the same decision on every thread and after every steal, so
// sampled results stay deterministic and unbiased.
//
// Because canonical enumeration gives every depth-k subgraph exactly one
// generation path, a subgraph survives with probability p^k — so dividing
// sampled counts by p^k yields unbiased estimates (see apps/estimation.h).
#ifndef FRACTAL_ENUMERATE_SAMPLING_H_
#define FRACTAL_ENUMERATE_SAMPLING_H_

#include <algorithm>
#include <memory>

#include "enumerate/extension.h"

namespace fractal {

class SamplingStrategy : public ExtensionStrategy {
 public:
  SamplingStrategy(std::shared_ptr<const ExtensionStrategy> base,
                   double keep_probability, uint64_t seed)
      : base_(std::move(base)),
        keep_probability_(keep_probability),
        seed_(seed) {
    FRACTAL_CHECK(base_ != nullptr);
    FRACTAL_CHECK(keep_probability_ > 0.0 && keep_probability_ <= 1.0);
  }

  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx,
                         std::vector<uint32_t>* out) const override {
    base_->ComputeExtensions(graph, subgraph, ctx, out);
    if (keep_probability_ >= 1.0) return;
    const uint64_t prefix_hash = HashSubgraph(subgraph);
    auto keep = [this, prefix_hash](uint32_t extension) {
      uint64_t h = prefix_hash ^ (0x9e3779b97f4a7c15ull * (extension + 1));
      h = Mix(h);
      return (h >> 11) * 0x1.0p-53 < keep_probability_;
    };
    out->erase(std::remove_if(out->begin(), out->end(),
                              [&keep](uint32_t e) { return !keep(e); }),
               out->end());
  }

  void Apply(const Graph& graph, uint32_t extension,
             Subgraph* subgraph) const override {
    base_->Apply(graph, extension, subgraph);
  }
  void Undo(const Graph& graph, Subgraph* subgraph) const override {
    base_->Undo(graph, subgraph);
  }
  uint32_t MaxDepth() const override { return base_->MaxDepth(); }
  uint32_t MaxVerticesAt(uint32_t depth) const override {
    return base_->MaxVerticesAt(depth);
  }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t HashSubgraph(const Subgraph& subgraph) const {
    uint64_t h = seed_ ^ 0xD6E8FEB86659FD93ull;
    for (const VertexId v : subgraph.Vertices()) h = Mix(h ^ v);
    for (const EdgeId e : subgraph.Edges()) h = Mix(h ^ (e + 0x51ull));
    return h;
  }

  std::shared_ptr<const ExtensionStrategy> base_;
  double keep_probability_;
  uint64_t seed_;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_SAMPLING_H_
