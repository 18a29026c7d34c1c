// Seeded violation for tools/fractal_lint.py --self-test: shared
// read-modify-writes on a hot path. An atomic fetch_add on a counter every
// thread bumps, and updates of shared registry metrics (through a handle
// accessor and through a local handle), each put a write to a contended
// cache line into the inner loop. The functions after them show the
// compliant forms and must stay silent: a relaxed load+store on a
// thread-owned slot, a plain LocalHistogram tally, and a claim-protocol RMW
// audited with FRACTAL_HOT_ESCAPE.
// LINT-EXPECT: shared-rmw
#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "util/hot_annotations.h"

namespace fractal_fixture {

inline std::atomic<uint64_t> g_units{0};

inline fractal::obs::Histogram& BatchSizes() {
  static fractal::obs::Histogram& histogram =
      fractal::obs::ExtensionBatchHistogram();
  return histogram;
}

inline fractal::obs::Counter& UnitsCounter() {
  static fractal::obs::Counter& counter = fractal::obs::WorkUnitsCounter();
  return counter;
}

FRACTAL_HOT inline void CountUnitShared() {
  g_units.fetch_add(1, std::memory_order_relaxed);  // seeded: atomic RMW
}

FRACTAL_HOT inline void RecordBatchShared(uint64_t size) {
  BatchSizes().Record(size);  // seeded: shared histogram update
}

FRACTAL_HOT inline void CountUnitThroughHandle() {
  fractal::obs::Counter& units = UnitsCounter();
  units.Add(1);  // seeded: shared counter update
}

// Compliant: the slot has one writer, so a relaxed load and store publish
// it without an RMW; the histogram tally is plain per-thread memory.
FRACTAL_HOT inline void CountUnitOwned(std::atomic<uint64_t>& slot,
                                       fractal::obs::LocalHistogram& batches,
                                       uint64_t size) {
  slot.store(slot.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  batches.Record(size);
}

// Compliant: an audited claim-protocol RMW.
FRACTAL_HOT inline uint32_t ClaimNext(std::atomic<uint32_t>& cursor) {
  FRACTAL_HOT_ESCAPE("claim protocol: owner and thieves share the cursor");
  return cursor.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace fractal_fixture
