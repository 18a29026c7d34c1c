// Branch-light sorted-set kernels: the algebra the enumeration data plane
// is built on (DESIGN.md §8). Every adjacency list in Graph is sorted, so
// extension computation reduces to intersections and differences of sorted
// uint32 runs. Each kernel appends to `out` (never clears), preserves
// ascending order, and picks between a linear two-pointer merge and a
// galloping (exponential-probe + binary-search) scan of the larger input
// based on the size ratio — galloping wins once one side is much shorter
// than the other, which is the common case deep in the DFS where the
// candidate set has already shrunk but neighbor lists stay large.
//
// Instrumentation: every kernel call counts one "enumerate.intersections"
// and, when the galloping path is chosen, one "enumerate.galloped"
// (obs/metrics.h) — per *call*, not per element. Enumeration threads pass
// their own KernelCounts tally (plain increments, flushed once per step);
// callers without one count straight into the shared counters.
#ifndef FRACTAL_GRAPH_ADJACENCY_H_
#define FRACTAL_GRAPH_ADJACENCY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {
namespace adjacency {

/// Ensures `out` can absorb `extra` more elements without reallocating
/// mid-kernel. Every kernel bounds its output size by its input size, so
/// with headroom secured up front the append loops are allocation-free;
/// amortized high-water-mark growth of the recycled arena buffer happens
/// here, under an AllocGuard::Allow (the runtime twin of the lint escape),
/// and grows geometrically so a stream of new marks stays O(n) total copy.
FRACTAL_HOT inline void EnsureHeadroom(
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out, size_t extra) {
  const size_t needed = out->size() + extra;
  if (out->capacity() < needed) {
    FRACTAL_HOT_ESCAPE("arena-buffer high-water-mark growth");
    AllocGuard::Allow allow("arena-buffer high-water-mark growth");
    const size_t doubled = out->capacity() * 2;
    out->reserve(needed > doubled ? needed : doubled);
  }
}

/// Single-owner tally of kernel invocations: the plain twin of the
/// "enumerate.intersections" / "enumerate.galloped" counters. Lives in the
/// thread's ExtensionContext; a null tally makes a kernel count into the
/// shared counters directly (tests, benchmarks, one-off callers).
struct KernelCounts {
  uint64_t calls = 0;
  uint64_t galloped = 0;

  /// Adds the tally to the shared counters and zeroes it.
  void Flush();
};

/// Size ratio (larger/smaller) above which kernels switch from the linear
/// merge to galloping, provided the larger side also clears
/// kGallopMinLarger (probing overhead only pays off on long runs).
inline constexpr size_t kGallopRatio = 8;
inline constexpr size_t kGallopMinLarger = 32;

/// First index >= begin with haystack[index] >= needle, found by doubling
/// probes from `begin` followed by a binary search of the bracketed run.
/// O(log distance) instead of O(log |haystack|) — cheap for the clustered
/// accesses the kernels make.
FRACTAL_HOT size_t GallopLowerBound(std::span<const uint32_t> haystack, size_t begin,
                        uint32_t needle);

/// Appends {x : x in a, x in b} to out, ascending. The call is counted in
/// `counts` (or the shared counters when null).
FRACTAL_HOT void Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
               KernelCounts* counts = nullptr);

/// Appends {x : x in a, x in b, x > bound} to out, ascending.
FRACTAL_HOT void IntersectAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                    KernelCounts* counts = nullptr);

/// Appends {x : x in a, x not in b} to out, ascending.
FRACTAL_HOT void Difference(std::span<const uint32_t> a, std::span<const uint32_t> b,
                FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                KernelCounts* counts = nullptr);

/// Appends {x : x in a, x not in b, x > bound} to out, ascending.
FRACTAL_HOT void DifferenceAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                     KernelCounts* counts = nullptr);

/// Appends {x : x in a, x > bound} to out, ascending. Pure restriction —
/// not counted as a kernel invocation.
FRACTAL_HOT void CopyAbove(std::span<const uint32_t> a, uint32_t bound,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out);

}  // namespace adjacency
}  // namespace fractal

#endif  // FRACTAL_GRAPH_ADJACENCY_H_
