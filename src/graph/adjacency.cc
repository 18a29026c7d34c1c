#include "graph/adjacency.h"

#include <algorithm>

#include "obs/metrics.h"

namespace fractal {
namespace adjacency {
namespace {

// Cached handles: the registry lookup locks MetricsRegistry::mu once.
obs::Counter& Intersections() {
  static obs::Counter& counter = obs::IntersectionKernelsCounter();
  return counter;
}
obs::Counter& Galloped() {
  static obs::Counter& counter = obs::GallopedKernelsCounter();
  return counter;
}

/// Counts one kernel call, and whether it galloped, into the caller's tally.
FRACTAL_HOT void CountCall(KernelCounts* counts, bool galloped) {
  if (counts != nullptr) {
    ++counts->calls;
    counts->galloped += galloped ? 1 : 0;
    return;
  }
  FRACTAL_HOT_ESCAPE("untallied callers (tests, benchmarks) are off the "
                     "enumeration threads, which always pass a tally");
  Intersections().Add(1);
  if (galloped) Galloped().Add(1);
}

FRACTAL_HOT bool ShouldGallop(size_t smaller, size_t larger) {
  return larger >= kGallopMinLarger && larger / (smaller + 1) >= kGallopRatio;
}

FRACTAL_HOT void IntersectMerge(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) out->push_back(x);
    // Branch-light advance: both cursors move on equality.
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
}

/// `small` drives; membership is probed in `large` by galloping.
FRACTAL_HOT void IntersectGallop(std::span<const uint32_t> small,
                     std::span<const uint32_t> large,
                     FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t cursor = 0;
  for (const uint32_t x : small) {
    cursor = GallopLowerBound(large, cursor, x);
    if (cursor == large.size()) return;
    if (large[cursor] == x) {
      out->push_back(x);
      ++cursor;
    }
  }
}

FRACTAL_HOT void DifferenceMerge(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x < y) {
      out->push_back(x);
      ++i;
    } else if (x == y) {
      ++i;
      ++j;
    } else {
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + i, a.end());
}

/// `a` drives; each element's absence from the much larger `b` is decided
/// by a galloping probe.
FRACTAL_HOT void DifferenceGallopProbe(std::span<const uint32_t> a,
                           std::span<const uint32_t> b,
                           FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t cursor = 0;
  for (const uint32_t x : a) {
    cursor = GallopLowerBound(b, cursor, x);
    if (cursor == b.size() || b[cursor] != x) out->push_back(x);
  }
}

/// `b` is much smaller than `a`: copy the runs of `a` between consecutive
/// elements of `b`, galloping over `a` to find each run boundary.
FRACTAL_HOT void DifferenceGallopCopy(std::span<const uint32_t> a,
                          std::span<const uint32_t> b,
                          FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t i = 0;
  for (const uint32_t y : b) {
    const size_t end = GallopLowerBound(a, i, y);
    out->insert(out->end(), a.begin() + i, a.begin() + end);
    i = end;
    if (i < a.size() && a[i] == y) ++i;
    if (i == a.size()) return;
  }
  out->insert(out->end(), a.begin() + i, a.end());
}

/// Restricts a sorted span to elements > bound.
FRACTAL_HOT std::span<const uint32_t> Above(std::span<const uint32_t> s, uint32_t bound) {
  const auto it = std::upper_bound(s.begin(), s.end(), bound);
  return s.subspan(static_cast<size_t>(it - s.begin()));
}

}  // namespace

void KernelCounts::Flush() {
  if (calls != 0) Intersections().Add(calls);
  if (galloped != 0) Galloped().Add(galloped);
  calls = 0;
  galloped = 0;
}

FRACTAL_HOT size_t GallopLowerBound(std::span<const uint32_t> haystack, size_t begin,
                        uint32_t needle) {
  if (begin >= haystack.size() || haystack[begin] >= needle) return begin;
  // Doubling probes: bracket the needle in (begin + step/2, begin + step].
  size_t step = 1;
  size_t low = begin;
  while (low + step < haystack.size() && haystack[low + step] < needle) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(low + step + 1, haystack.size());
  const auto it = std::lower_bound(haystack.begin() + low + 1,
                                   haystack.begin() + high, needle);
  return static_cast<size_t>(it - haystack.begin());
}

FRACTAL_HOT void Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
               KernelCounts* counts) {
  if (a.size() > b.size()) std::swap(a, b);
  EnsureHeadroom(out, a.size());  // output is a subset of the smaller side
  const bool gallop = ShouldGallop(a.size(), b.size());
  CountCall(counts, gallop);
  if (gallop) {
    IntersectGallop(a, b, out);
  } else {
    IntersectMerge(a, b, out);
  }
}

FRACTAL_HOT void IntersectAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                    KernelCounts* counts) {
  Intersect(Above(a, bound), Above(b, bound), out, counts);
}

FRACTAL_HOT void Difference(std::span<const uint32_t> a, std::span<const uint32_t> b,
                FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                KernelCounts* counts) {
  EnsureHeadroom(out, a.size());  // output is a subset of a
  if (ShouldGallop(a.size(), b.size())) {
    CountCall(counts, true);
    DifferenceGallopProbe(a, b, out);
  } else if (ShouldGallop(b.size(), a.size())) {
    CountCall(counts, true);
    DifferenceGallopCopy(a, b, out);
  } else {
    CountCall(counts, false);
    DifferenceMerge(a, b, out);
  }
}

FRACTAL_HOT void DifferenceAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                     KernelCounts* counts) {
  Difference(Above(a, bound), Above(b, bound), out, counts);
}

FRACTAL_HOT void CopyAbove(std::span<const uint32_t> a, uint32_t bound,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  const std::span<const uint32_t> tail = Above(a, bound);
  EnsureHeadroom(out, tail.size());
  out->insert(out->end(), tail.begin(), tail.end());
}

}  // namespace adjacency
}  // namespace fractal
