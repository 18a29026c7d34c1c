// Canonical labeling of patterns (paper §2.1): maps every member of an
// isomorphism class to one representative, so that pattern equality becomes
// cheap value comparison. Two providers are implemented:
//   * CanonicalForm(): branch-and-bound minimization of the labeled
//     adjacency-matrix code over all position permutations — the reference
//     implementation, also returns the permutation (needed by MNI support
//     counting, which must align embedding positions across subgraphs).
//   * MinDfsCode() (dfs_code.h): the gSpan DFS-code canonicalization the
//     paper adopts. The two providers are cross-checked in tests: they must
//     induce the same equivalence classes.
// CanonicalPatternCache memoizes canonicalization by "quick pattern" (the
// pattern in subgraph addition order), the Arabesque two-phase aggregation
// trick: distinct quick patterns are few, so the expensive canonicalization
// runs once per quick pattern rather than once per subgraph. It is keyed on
// the packed QuickPatternKey (quick_key.h) in an open-addressing flat table
// and numbers canonical classes densely per cache, so the per-subgraph
// lookup allocates nothing and aggregations can fold into arrays indexed by
// class id (DESIGN.md §13).
#ifndef FRACTAL_PATTERN_CANONICAL_H_
#define FRACTAL_PATTERN_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"
#include "pattern/quick_key.h"
#include "util/hot_annotations.h"

namespace fractal {

struct CanonicalResult {
  /// The class representative.
  Pattern pattern;
  /// perm[i] = canonical position of input position i
  /// (pattern == input.Permuted(perm)).
  std::vector<uint32_t> permutation;
  /// orbit[p] = smallest canonical position in p's automorphism orbit.
  /// Needed by MNI support counting: an embedding vertex belongs to the
  /// domain of every position its canonical position is automorphic to.
  std::vector<uint32_t> orbit;
};

/// Computes the canonical form of `pattern` by exact search. Cost grows
/// with NumVertices()! — intended for the small patterns of GPM (<= ~9
/// vertices); memoize with CanonicalPatternCache in hot paths.
CanonicalResult CanonicalForm(const Pattern& pattern);

/// True iff a and b are isomorphic (labels respected).
bool AreIsomorphic(const Pattern& a, const Pattern& b);

/// Open-addressing hash index from QuickPatternKey to a dense entry
/// number: slots hold (hash tag, entry index), entries live in insertion
/// order in a separate vector, so the slot array stays small and a rehash
/// moves no keys. Allocates nothing until the first insert.
template <typename Entry>  // Entry has a `QuickPatternKey key` member
class QuickKeyTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// Index of the entry with `key` (whose Hash() is `hash`), or kNotFound.
  FRACTAL_HOT uint32_t Find(const QuickPatternKey& key, uint64_t hash) const {
    if (slots_.empty()) return kNotFound;
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot slot = slots_[i];
      if (slot.index == kNotFound) return kNotFound;
      if (slot.tag == tag && entries_[slot.index].key == key) {
        return slot.index;
      }
    }
  }

  /// Appends `entry` (its key must be absent); returns its index.
  uint32_t Insert(const Entry& entry, uint64_t hash);

  const Entry& at(uint32_t index) const { return entries_[index]; }
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t index = kNotFound;
  };

  void Place(uint32_t index, uint64_t hash);

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  size_t mask_ = 0;
  std::vector<Entry> entries_;
};

/// Memoizing wrapper around CanonicalForm keyed by the quick pattern.
/// Not thread-safe: use one instance per execution thread.
class CanonicalPatternCache {
 public:
  /// One memoized quick pattern: its canonical class (numbered densely
  /// 0, 1, ... in first-seen order by this cache) and the quick ->
  /// canonical position map (position[i] = canonical position of quick
  /// position i, the CanonicalResult::permutation of this quick pattern).
  struct Mapping {
    QuickPatternKey key;
    uint32_t class_id = 0;
    uint8_t position[QuickPatternKey::kMaxVertices] = {};
  };

  /// The per-subgraph hot path: class and position map of `key`. The
  /// reference stays valid until the next lookup that misses.
  FRACTAL_HOT const Mapping& Classify(const QuickPatternKey& key) {
    const uint64_t hash = key.Hash();
    const uint32_t index = mappings_.Find(key, hash);
    if (index != QuickKeyTable<Mapping>::kNotFound) {
      ++hits_;
      return mappings_.at(index);
    }
    return Miss(key, hash);
  }

  /// The representative of class `class_id`: canonical pattern, orbits,
  /// and the permutation of the first quick pattern seen in the class.
  const CanonicalResult& Class(uint32_t class_id) const {
    return classes_[class_id];
  }
  uint32_t NumClasses() const {
    return static_cast<uint32_t>(classes_.size());
  }

  /// Pattern-typed lookup (oracles, baselines, probes): the canonical
  /// form of `quick_pattern` with its own permutation. The reference is
  /// to a per-cache result slot, valid until the next call.
  const CanonicalResult& Canonicalize(const Pattern& quick_pattern);

  /// Distinct quick patterns memoized.
  size_t CacheSize() const { return mappings_.size(); }
  uint64_t Hits() const { return hits_; }
  uint64_t Misses() const { return misses_; }

 private:
  struct ClassIndexEntry {
    QuickPatternKey key;  // the canonical pattern, packed
    uint32_t class_id = 0;
  };

  /// Canonicalizes a new quick pattern and files it (cold path).
  const Mapping& Miss(const QuickPatternKey& key, uint64_t hash);

  QuickKeyTable<Mapping> mappings_;
  QuickKeyTable<ClassIndexEntry> class_index_;
  std::vector<CanonicalResult> classes_;  // by class id
  CanonicalResult pattern_result_;        // Canonicalize's result slot
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

template <typename Entry>
uint32_t QuickKeyTable<Entry>::Insert(const Entry& entry, uint64_t hash) {
  if ((entries_.size() + 1) * 2 > slots_.size()) {
    // Grow the slot array and re-place every entry; entries do not move.
    const size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (uint32_t index = 0; index < entries_.size(); ++index) {
      Place(index, entries_[index].key.Hash());
    }
  }
  const uint32_t index = static_cast<uint32_t>(entries_.size());
  entries_.push_back(entry);
  Place(index, hash);
  return index;
}

template <typename Entry>
void QuickKeyTable<Entry>::Place(uint32_t index, uint64_t hash) {
  size_t i = hash & mask_;
  while (slots_[i].index != kNotFound) i = (i + 1) & mask_;
  slots_[i] = Slot{static_cast<uint32_t>(hash >> 32), index};
}

}  // namespace fractal

#endif  // FRACTAL_PATTERN_CANONICAL_H_
