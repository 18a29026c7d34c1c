// Seeded violation for tools/fractal_lint.py --self-test, one half of a
// pair with fixture_receiver_owned.cc: both files define a method Tick on
// two classes. Here a hot root calls Tick through a SharedTally parameter,
// and SharedTally::Tick is an atomic RMW, so shared-rmw fires in this file.
// The receiver names its class, so the walk must not also enter the
// same-named Tick methods of the other file.
// LINT-EXPECT: shared-rmw
#include <atomic>
#include <cstdint>

#include "util/hot_annotations.h"

namespace fractal_fixture {

struct SharedTally {
  std::atomic<uint64_t> count{0};
  void Tick() { count.fetch_add(1, std::memory_order_relaxed); }  // seeded
};

FRACTAL_HOT inline void CountShared(SharedTally& tally) { tally.Tick(); }

}  // namespace fractal_fixture
