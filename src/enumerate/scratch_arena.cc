#include "enumerate/scratch_arena.h"

#include "obs/metrics.h"
#include "util/alloc_guard.h"

namespace fractal {

void ScratchArena::FlushCounters() {
  if (hits_ != 0) obs::ScratchHitsCounter().Add(hits_);
  if (misses_ != 0) obs::ScratchMissesCounter().Add(misses_);
  hits_ = 0;
  misses_ = 0;
}

FRACTAL_HOT std::vector<uint32_t>* ScratchArena::Acquire() {
  ++live_;
  if (!free_.empty()) {
    std::vector<uint32_t>* buffer = free_.back();
    free_.pop_back();
    buffer->clear();
    ++hits_;
    return buffer;
  }
  FRACTAL_HOT_ESCAPE("pool miss: the arena warms up to the DFS's peak "
                     "concurrent lease count, then every Acquire hits");
  AllocGuard::Allow allow("scratch arena pool growth");
  ++misses_;
  owned_.push_back(std::make_unique<std::vector<uint32_t>>());
  // Keep free_ large enough for every buffer to come back at once, so the
  // matching Release (outside this Allow scope) never reallocates.
  free_.reserve(owned_.size());
  return owned_.back().get();
}

FRACTAL_HOT void ScratchArena::Release(std::vector<uint32_t>* buffer) {
  FRACTAL_DCHECK(buffer != nullptr);
  FRACTAL_DCHECK(live_ > 0);
  --live_;
  free_.push_back(buffer);
}

}  // namespace fractal
