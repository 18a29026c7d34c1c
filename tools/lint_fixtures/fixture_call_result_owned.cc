// The clean half of the call-result receiver pair
// (fixture_call_result_shared.cc): each hot call below runs Bump on the
// object a function returns, and the walk resolves it through that
// function's declared return type — a reference, and a pointer reached
// through a namespace qualifier. LocalCounter::Bump is a plain increment;
// IdleCounter::Bump does an atomic RMW under the same name but no hot path
// calls it. Resolved by bare name, these calls would walk into
// IdleCounter::Bump (and SharedCounter::Bump) and fire shared-rmw here.
// LINT-EXPECT-CLEAN
#include <atomic>
#include <cstdint>

#include "util/hot_annotations.h"

namespace fractal_fixture {

struct LocalCounter {
  uint64_t count = 0;
  void Bump() { ++count; }
};

struct IdleCounter {
  std::atomic<uint64_t> count{0};
  void Bump() { count.fetch_add(1, std::memory_order_relaxed); }
};

inline LocalCounter& ThreadCounter() {
  thread_local LocalCounter counter;
  return counter;
}

inline LocalCounter* ThreadCounterPtr() { return &ThreadCounter(); }

FRACTAL_HOT inline void CountLocally() {
  ThreadCounter().Bump();
  fractal_fixture::ThreadCounterPtr()->Bump();
}

}  // namespace fractal_fixture
