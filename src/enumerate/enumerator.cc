#include "enumerate/enumerator.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/alloc_guard.h"

namespace fractal {
namespace {

// Cached handle: the registry lookup (which locks MetricsRegistry::mu) runs
// once; callers grab the reference before taking SubgraphEnumerator::mu.
// The init can land mid-run on a guarded thread, so the key temporary is
// built under an Allow (GetCounter covers its own allocations).
obs::Counter& EnumerateStealsCounter() {
  static obs::Counter& counter = []() -> obs::Counter& {
    AllocGuard::Allow allow("one-time metric-handle registration");
    return obs::MetricsRegistry::Get().GetCounter("enumerate.steals");
  }();
  return counter;
}

}  // namespace

FRACTAL_HOT void SubgraphEnumerator::Refill(
    const Subgraph& prefix, uint32_t primitive_index,
    std::vector<uint32_t>&& extensions) {
  // The span opens before mu_ is taken (and closes after it is released):
  // no trace-buffer work under the enumerator steal lock. The batch-size
  // histogram is the caller's thread-owned tally (ExtensionContext).
  FRACTAL_TRACE_SPAN_V("enumerate/refill", extensions.size());
  MutexLock lock(mu_);
  prefix_ = prefix;
  primitive_index_ = primitive_index;
  extensions_.swap(extensions);
  size_hint_.store(static_cast<uint32_t>(extensions_.size()),
                   std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void SubgraphEnumerator::Deactivate() {
  MutexLock lock(mu_);
  active_.store(false, std::memory_order_release);
}

FRACTAL_HOT bool SubgraphEnumerator::TrySteal(StolenWork* out) {
  obs::Counter& steals = EnumerateStealsCounter();
  MutexLock lock(mu_);
  if (!active_.load(std::memory_order_acquire)) return false;
  const uint32_t index = ClaimIndex();
  if (index >= extensions_.size()) return false;
  out->prefix = prefix_;
  out->extension = extensions_[index];
  out->primitive_index = primitive_index_;
  FRACTAL_HOT_ESCAPE("once per successful steal, not per work unit");
  steals.Add(1);  // lock-free atomic; safe under mu_
  return true;
}

}  // namespace fractal
