// Seeded violation for tools/fractal_lint.py --self-test, one half of a
// pair with fixture_call_result_owned.cc: both files define Bump on several
// classes. Here a hot root calls Bump on the SharedCounter a function
// returns, and SharedCounter::Bump is an atomic RMW, so shared-rmw fires in
// this file. The callee's declared return type names the receiver's class,
// so the walk must not also enter the same-named Bump methods of the other
// file.
// LINT-EXPECT: shared-rmw
#include <atomic>
#include <cstdint>

#include "util/hot_annotations.h"

namespace fractal_fixture {

struct SharedCounter {
  std::atomic<uint64_t> count{0};
  void Bump() { count.fetch_add(1, std::memory_order_relaxed); }  // seeded
};

inline SharedCounter& GlobalCounter() {
  static SharedCounter counter;
  return counter;
}

FRACTAL_HOT inline void CountGlobally() { GlobalCounter().Bump(); }

}  // namespace fractal_fixture
