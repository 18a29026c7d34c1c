#include "pattern/canonical.h"

#include "pattern/automorphism.h"
#include "util/alloc_guard.h"

#include <algorithm>

namespace fractal {
namespace {

// The code of an ordering places, for each new position d, one entry for the
// vertex label followed by d entries describing (non)adjacency + edge label
// to each earlier position. Minimizing the flat entry sequence
// lexicographically over all orderings yields a canonical form.
class Minimizer {
 public:
  explicit Minimizer(const Pattern& pattern) : pattern_(pattern) {
    n_ = pattern.NumVertices();
    used_.assign(n_, 0);
    order_.reserve(n_);
  }

  CanonicalResult Run() {
    Search();
    CanonicalResult result;
    result.permutation.assign(n_, 0);
    for (uint32_t position = 0; position < n_; ++position) {
      result.permutation[best_order_[position]] = position;
    }
    result.pattern = pattern_.Permuted(result.permutation);
    return result;
  }

 private:
  // One code entry: vertex label, or adjacency slot (0 = non-adjacent,
  // 1+edge label = adjacent).
  using Entry = uint64_t;

  void Search() {
    if (n_ == 0) {
      best_order_.clear();
      have_best_ = true;
      return;
    }
    SearchAt(0);
    FRACTAL_CHECK(have_best_);
  }

  void SearchAt(uint32_t depth) {
    if (depth == n_) {
      if (!have_best_ || current_code_ < best_code_) {
        best_code_ = current_code_;
        best_order_ = order_;
        have_best_ = true;
      }
      return;
    }
    for (uint32_t v = 0; v < n_; ++v) {
      if (used_[v]) continue;
      const size_t code_size_before = current_code_.size();
      AppendColumn(v, depth);
      // Prune: if the prefix already exceeds the best full code, no
      // completion can win.
      if (!have_best_ || !PrefixGreaterThanBest()) {
        used_[v] = 1;
        order_.push_back(v);
        SearchAt(depth + 1);
        order_.pop_back();
        used_[v] = 0;
      }
      current_code_.resize(code_size_before);
    }
  }

  void AppendColumn(uint32_t v, uint32_t depth) {
    current_code_.push_back(pattern_.VertexLabel(v));
    for (uint32_t i = 0; i < depth; ++i) {
      const uint32_t earlier = order_[i];
      if (pattern_.IsAdjacent(earlier, v)) {
        current_code_.push_back(
            1ull + pattern_.EdgeLabelBetween(earlier, v));
      } else {
        current_code_.push_back(0);
      }
    }
  }

  bool PrefixGreaterThanBest() const {
    const size_t len = current_code_.size();
    FRACTAL_DCHECK(len <= best_code_.size());
    for (size_t i = 0; i < len; ++i) {
      if (current_code_[i] != best_code_[i]) {
        return current_code_[i] > best_code_[i];
      }
    }
    return false;  // equal prefix: keep searching
  }

  const Pattern& pattern_;
  uint32_t n_ = 0;
  std::vector<uint8_t> used_;
  std::vector<uint32_t> order_;
  std::vector<Entry> current_code_;
  std::vector<Entry> best_code_;
  std::vector<uint32_t> best_order_;
  bool have_best_ = false;
};

}  // namespace

CanonicalResult CanonicalForm(const Pattern& pattern) {
  CanonicalResult result = Minimizer(pattern).Run();
  const uint32_t n = result.pattern.NumVertices();
  const auto automorphisms = Automorphisms(result.pattern);
  // Union-find by minimum: positions connected by any automorphism share an
  // orbit; iterate to a fixed point.
  result.orbit.resize(n);
  for (uint32_t p = 0; p < n; ++p) result.orbit[p] = p;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& automorphism : automorphisms) {
      for (uint32_t p = 0; p < n; ++p) {
        const uint32_t minimum =
            std::min(result.orbit[p], result.orbit[automorphism[p]]);
        if (result.orbit[p] != minimum ||
            result.orbit[automorphism[p]] != minimum) {
          result.orbit[p] = minimum;
          result.orbit[automorphism[p]] = minimum;
          changed = true;
        }
      }
    }
  }
  return result;
}

bool AreIsomorphic(const Pattern& a, const Pattern& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  return CanonicalForm(a).pattern == CanonicalForm(b).pattern;
}

const CanonicalPatternCache::Mapping& CanonicalPatternCache::Miss(
    const QuickPatternKey& key, uint64_t hash) {
  FRACTAL_HOT_ESCAPE("cache miss: once per distinct quick pattern per thread");
  AllocGuard::Allow allow("canonical cache miss: canonicalize, grow tables");
  ++misses_;
  CanonicalResult canonical = CanonicalForm(key.ToPattern());
  Mapping mapping;
  mapping.key = key;
  for (uint32_t i = 0; i < key.num_vertices; ++i) {
    mapping.position[i] = static_cast<uint8_t>(canonical.permutation[i]);
  }
  const QuickPatternKey class_key =
      QuickPatternKey::FromPattern(canonical.pattern);
  const uint64_t class_hash = class_key.Hash();
  const uint32_t found = class_index_.Find(class_key, class_hash);
  if (found != QuickKeyTable<ClassIndexEntry>::kNotFound) {
    mapping.class_id = class_index_.at(found).class_id;
  } else {
    mapping.class_id = static_cast<uint32_t>(classes_.size());
    class_index_.Insert(ClassIndexEntry{class_key, mapping.class_id},
                        class_hash);
    classes_.push_back(std::move(canonical));
  }
  return mappings_.at(mappings_.Insert(mapping, hash));
}

const CanonicalResult& CanonicalPatternCache::Canonicalize(
    const Pattern& quick_pattern) {
  const Mapping& mapping = Classify(QuickPatternKey::FromPattern(quick_pattern));
  const CanonicalResult& canonical = classes_[mapping.class_id];
  // Copy-assignment reuses the slot's capacity: no allocation once warm.
  pattern_result_.pattern = canonical.pattern;
  pattern_result_.orbit = canonical.orbit;
  pattern_result_.permutation.assign(
      mapping.position, mapping.position + quick_pattern.NumVertices());
  return pattern_result_;
}

}  // namespace fractal
