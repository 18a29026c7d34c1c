// AllocGuard unit tests: scope counting, nesting, Allow suppression,
// thread-locality, the process-wide totals, and the abort backstop — plus
// warm motif-counting and FSM steps, whose pattern-aggregation path (packed
// key, flat canonical cache, dense accumulators) must run allocation-free
// under the armed guard. Every test skips itself when the interposing
// operator new/delete runtime is compiled out
// (FRACTAL_ENABLE_ALLOC_GUARD=OFF).
#include "util/alloc_guard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>

#include "apps/fsm.h"
#include "apps/motifs.h"
#include "core/context.h"
#include "graph/generators.h"
#include "obs/metrics.h"

namespace fractal {
namespace {

// TSan's runtime forks poorly; the death test opts out under it.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

// Heap traffic the optimizer cannot elide.
void* AllocateVisible(size_t n) {
  void* p = ::operator new(n);
  static_cast<volatile char*>(p)[0] = 1;
  return p;
}

class AllocGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!AllocGuard::Active()) {
      GTEST_SKIP() << "alloc-guard runtime compiled out";
    }
  }
};

TEST_F(AllocGuardTest, CountsAllocationsBytesAndFrees) {
  AllocGuard guard(AllocGuard::Mode::kCount);
  void* p = AllocateVisible(64);
  const uint64_t after_alloc = guard.allocations();
  const uint64_t bytes = guard.bytes();
  ::operator delete(p);
  EXPECT_GE(after_alloc, 1u);
  EXPECT_GE(bytes, 64u);
  EXPECT_GE(guard.frees(), 1u);
}

TEST_F(AllocGuardTest, OffModeObservesNothing) {
  AllocGuard guard(AllocGuard::Mode::kOff);
  ::operator delete(AllocateVisible(32));
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(guard.bytes(), 0u);
  EXPECT_EQ(guard.frees(), 0u);
}

TEST_F(AllocGuardTest, AllowSuspendsObservation) {
  AllocGuard guard(AllocGuard::Mode::kCount);
  {
    AllocGuard::Allow allow("audited test allocation");
    ::operator delete(AllocateVisible(32));
  }
  EXPECT_EQ(guard.allocations(), 0u);
  ::operator delete(AllocateVisible(32));
  EXPECT_GE(guard.allocations(), 1u);
}

TEST_F(AllocGuardTest, NestedScopesAccumulateIntoOuter) {
  AllocGuard outer(AllocGuard::Mode::kCount);
  ::operator delete(AllocateVisible(16));
  const uint64_t outer_before_inner = outer.allocations();
  uint64_t inner_count = 0;
  {
    AllocGuard inner(AllocGuard::Mode::kCount);
    ::operator delete(AllocateVisible(16));
    inner_count = inner.allocations();
  }
  EXPECT_GE(outer_before_inner, 1u);
  EXPECT_GE(inner_count, 1u);
  // The outer scope saw its own allocation plus everything the inner saw.
  EXPECT_GE(outer.allocations(), outer_before_inner + inner_count);
}

TEST_F(AllocGuardTest, ScopesAreThreadLocal) {
  std::atomic<int> phase{0};
  std::thread other([&] {
    while (phase.load(std::memory_order_acquire) < 1) std::this_thread::yield();
    ::operator delete(AllocateVisible(1024));  // unguarded: other thread
    phase.store(2, std::memory_order_release);
  });
  {
    AllocGuard guard(AllocGuard::Mode::kCount);
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    EXPECT_EQ(guard.allocations(), 0u)
        << "a guard on this thread observed another thread's allocation";
  }
  other.join();
}

TEST_F(AllocGuardTest, GuardedOnThisThreadTracksScopeAndAllow) {
  EXPECT_FALSE(AllocGuard::GuardedOnThisThread());
  {
    AllocGuard guard(AllocGuard::Mode::kCount);
    EXPECT_TRUE(AllocGuard::GuardedOnThisThread());
    {
      AllocGuard::Allow allow("suspension");
      EXPECT_FALSE(AllocGuard::GuardedOnThisThread());
    }
    EXPECT_TRUE(AllocGuard::GuardedOnThisThread());
  }
  EXPECT_FALSE(AllocGuard::GuardedOnThisThread());
}

TEST_F(AllocGuardTest, TotalGuardedAllocationsAccumulates) {
  const uint64_t before = AllocGuard::TotalGuardedAllocations();
  {
    AllocGuard guard(AllocGuard::Mode::kCount);
    ::operator delete(AllocateVisible(8));
  }
  EXPECT_GE(AllocGuard::TotalGuardedAllocations(), before + 1);
}

TEST_F(AllocGuardTest, GlobalModeRoundTrips) {
  const AllocGuard::Mode prior = AllocGuard::GlobalMode();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  EXPECT_EQ(AllocGuard::GlobalMode(), AllocGuard::Mode::kCount);
  AllocGuard::SetGlobalMode(prior);
  EXPECT_EQ(AllocGuard::GlobalMode(), prior);
}

TEST_F(AllocGuardTest, WarmupUnitsIsPositive) {
  EXPECT_GT(AllocGuard::warmup_units(), 0u);
}

TEST_F(AllocGuardTest, AbortModeAbortsOnAllocation) {
  if (kTsan) GTEST_SKIP() << "death tests are unreliable under TSan";
  EXPECT_DEATH(
      {
        AllocGuard guard(AllocGuard::Mode::kAbort);
        ::operator delete(AllocateVisible(8));
      },
      "AllocGuard: heap allocation on a guarded hot path");
}

TEST_F(AllocGuardTest, AbortModeHonorsAllow) {
  AllocGuard guard(AllocGuard::Mode::kAbort);
  AllocGuard::Allow allow("audited: must not abort");
  ::operator delete(AllocateVisible(8));  // process survives => pass
}


// --- Pattern aggregation under the guard ------------------------------------
// Past the per-step warm-up every subgraph's key build, cache probe and
// in-place fold runs inside FractoidStepTask's guard scope with no escape
// around it; only cache misses, first folds of a class and geometric table
// growth carry audited Allow scopes. ci.sh re-runs this binary with
// FRACTAL_ALLOC_GUARD=abort.

struct AggregationResults {
  std::map<Pattern, uint64_t> motifs;
  std::map<Pattern, uint64_t> frequent;

  bool operator==(const AggregationResults&) const = default;
};

AggregationResults RunAggregations() {
  PowerLawParams params;
  params.num_vertices = 400;
  params.edges_per_vertex = 4;
  params.num_vertex_labels = 4;
  params.triangle_closure = 0.3;
  params.seed = 3;
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(GeneratePowerLaw(params));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  AggregationResults results;
  for (const auto& [pattern, count] : CountMotifs(graph, 4, config).counts) {
    results.motifs.emplace(pattern, count);
  }
  const FsmResult fsm = RunFsm(graph, /*min_support=*/40, 3, config);
  for (const auto& [pattern, support] : fsm.frequent) {
    results.frequent.emplace(pattern, support);
  }
  return results;
}

class PatternAggregationGuardTest : public AllocGuardTest {
 protected:
  void SetUp() override {
    AllocGuardTest::SetUp();
    prior_mode_ = AllocGuard::GlobalMode();
  }
  void TearDown() override {
    if (AllocGuard::Active()) AllocGuard::SetGlobalMode(prior_mode_);
  }

  AllocGuard::Mode prior_mode_ = AllocGuard::Mode::kOff;
};

TEST_F(PatternAggregationGuardTest, WarmStepsAreAllocationFreeInCountMode) {
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const AggregationResults expected = RunAggregations();

  const uint64_t work_before = obs::WorkUnitsCounter().Value();
  const uint64_t guarded_before = AllocGuard::TotalGuardedAllocations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kCount);
  const AggregationResults counted = RunAggregations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const uint64_t guarded =
      AllocGuard::TotalGuardedAllocations() - guarded_before;
  const uint64_t work = obs::WorkUnitsCounter().Value() - work_before;

  EXPECT_EQ(counted, expected);
  EXPECT_FALSE(expected.motifs.empty());
  EXPECT_FALSE(expected.frequent.empty());
  // Enough work per step that the guards armed at all.
  ASSERT_GT(work, 8 * AllocGuard::warmup_units());
  EXPECT_EQ(guarded, 0u)
      << "steady-state heap allocations on the pattern-aggregation path";
}

TEST_F(PatternAggregationGuardTest, WarmStepsCompleteUnderAbortMode) {
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  const AggregationResults expected = RunAggregations();
  // Surviving is the assertion: a guarded allocation aborts the process.
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kAbort);
  const AggregationResults aborted_mode = RunAggregations();
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
  EXPECT_EQ(aborted_mode, expected);
}

}  // namespace
}  // namespace fractal
