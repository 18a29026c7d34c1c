// The clean half of the receiver-class pair (fixture_receiver_shared.cc):
// OwnedTally::Tick is a plain increment, and each hot call below names its
// receiver's class — a parameter, a local, a member, a member reached
// through another object, and the implicit `this`. IdleTally::Tick does an
// atomic RMW under the same name but no hot path calls it. Resolved by bare
// name, every one of these calls would walk into IdleTally::Tick (and
// SharedTally::Tick) and fire shared-rmw here.
// LINT-EXPECT-CLEAN
#include <atomic>
#include <cstdint>

#include "util/hot_annotations.h"

namespace fractal_fixture {

struct OwnedTally {
  uint64_t count = 0;
  void Tick() { ++count; }
};

struct IdleTally {
  std::atomic<uint64_t> count{0};
  void Tick() { count.fetch_add(1, std::memory_order_relaxed); }
};

struct TallyHolder {
  OwnedTally owned_tally;
};

struct Pipeline {
  OwnedTally member_tally;
  uint64_t ticks = 0;

  FRACTAL_HOT void Run(OwnedTally& param, TallyHolder& holder) {
    param.Tick();
    OwnedTally local;
    local.Tick();
    member_tally.Tick();
    holder.owned_tally.Tick();
    Tick();
  }

  void Tick() { ++ticks; }
};

}  // namespace fractal_fixture
