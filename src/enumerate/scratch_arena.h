// ScratchArena: per-thread reusable buffers for the enumeration data plane
// (DESIGN.md §8). The DFS in core/fractoid_task.cc and the set-algebra
// kernels in enumerate/extension.cc need short-lived uint32 arrays at every
// expansion; drawing them from a pool keyed to the thread means steady-state
// enumeration performs no heap allocation — every Acquire() is a pop off the
// free list that keeps the vector's grown capacity.
//
// Ownership rules:
//   * One arena per execution thread (it lives inside ExtensionContext,
//     which lives inside Computation). Never shared across threads; no
//     locking anywhere.
//   * Acquire()/Release() must pair LIFO-or-not — the pool doesn't care —
//     but a released buffer must not be touched again. Use BufferLease for
//     scope-bound pairing.
//   * Buffers are cleared on Acquire but keep capacity; callers must not
//     assume a fresh allocation.
//
// Instrumentation: "enumerate.scratch_hits" counts pool reuses,
// "enumerate.scratch_misses" counts acquisitions that allocated. The arena
// tallies both in plain fields of its own and folds them into the registry
// in FlushCounters (once per thread per step) and on destruction, so
// Acquire writes only thread-owned memory (DESIGN.md §6).
#ifndef FRACTAL_ENUMERATE_SCRATCH_ARENA_H_
#define FRACTAL_ENUMERATE_SCRATCH_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"
#include "util/hot_annotations.h"

namespace fractal {

class ScratchArena {
 public:
  ScratchArena() = default;
  ~ScratchArena() { FlushCounters(); }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Adds the hit/miss tallies to the shared registry counters and zeroes
  /// them.
  void FlushCounters();

  /// Returns an empty buffer (capacity preserved from prior use). The
  /// pointer stays valid until Release — buffers are node-allocated, so
  /// later Acquires never move earlier ones. Hot-path root: steady state is
  /// a free-list pop; only the cold miss branch allocates.
  FRACTAL_HOT std::vector<uint32_t>* Acquire();

  /// Returns a buffer to the pool. `buffer` must come from Acquire() on
  /// this arena and must not be used afterwards. Hot-path root.
  FRACTAL_HOT void Release(std::vector<uint32_t>* buffer);

  /// Buffers currently out on loan (diagnostics / tests).
  size_t live_buffers() const { return live_; }
  /// Buffers ever allocated by this arena (loaned + pooled).
  size_t total_buffers() const { return owned_.size(); }

  /// Scope-bound Acquire/Release pair.
  class BufferLease {
   public:
    explicit BufferLease(ScratchArena& arena)
        : arena_(arena), buffer_(arena.Acquire()) {}
    ~BufferLease() { arena_.Release(buffer_); }

    BufferLease(const BufferLease&) = delete;
    BufferLease& operator=(const BufferLease&) = delete;

    std::vector<uint32_t>& operator*() { return *buffer_; }
    std::vector<uint32_t>* operator->() { return buffer_; }
    std::vector<uint32_t>* get() { return buffer_; }

   private:
    ScratchArena& arena_;
    std::vector<uint32_t>* buffer_;
  };

  /// Epoch-stamped VertexId -> uint32 map with O(1) lookup and O(1) reset:
  /// Reset() bumps the epoch instead of clearing storage, so reusing the
  /// map across ComputeExtensions calls costs nothing. Storage grows to the
  /// largest capacity ever requested and is then reused.
  class StampedMap {
   public:
    static constexpr uint32_t kAbsent = UINT32_MAX;

    /// Empties the map and ensures keys [0, capacity) are addressable.
    FRACTAL_HOT void Reset(uint32_t capacity) {
      if (capacity > values_.size()) {
        FRACTAL_HOT_ESCAPE("map storage grows once to the largest capacity "
                           "requested, then is reused every call");
        values_.resize(capacity, 0);
        stamps_.resize(capacity, 0);
      }
      if (++epoch_ == 0) {  // stamp wraparound: invalidate all entries
        std::fill(stamps_.begin(), stamps_.end(), 0);
        epoch_ = 1;
      }
    }

    uint32_t Get(uint32_t key) const {
      FRACTAL_DCHECK(key < values_.size());
      return stamps_[key] == epoch_ ? values_[key] : kAbsent;
    }

    void Set(uint32_t key, uint32_t value) {
      FRACTAL_DCHECK(key < values_.size());
      FRACTAL_DCHECK(value != kAbsent);
      stamps_[key] = epoch_;
      values_[key] = value;
    }

   private:
    std::vector<uint32_t> values_;
    std::vector<uint32_t> stamps_;
    uint32_t epoch_ = 0;
  };

  StampedMap& vertex_map() { return vertex_map_; }

 private:
  // All buffers ever created (stable node allocation); free_ holds the
  // subset currently available. free_ is arena storage itself: Acquire's
  // miss branch reserves it to owned_.size(), so Release's push_back never
  // reallocates.
  std::vector<std::unique_ptr<std::vector<uint32_t>>> owned_;
  FRACTAL_ARENA_OUT std::vector<std::vector<uint32_t>*> free_;
  size_t live_ = 0;
  // Acquisitions since the last FlushCounters, by pool hit or miss.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  StampedMap vertex_map_;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_SCRATCH_ARENA_H_
