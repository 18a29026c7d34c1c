// Annotated synchronization primitives. `Mutex` / `MutexLock` / `CondVar`
// wrap std::mutex / std::condition_variable_any and add two layers of
// checking on top:
//
//   * Clang Thread Safety Analysis capabilities (util/thread_annotations.h):
//     under clang, fields declared GUARDED_BY a Mutex and functions declared
//     REQUIRES/ACQUIRE/RELEASE are verified at compile time
//     (-Wthread-safety, promoted to an error in this build).
//   * Lockdep (util/lockdep.h): in FRACTAL_LOCKDEP builds (CMake option
//     FRACTAL_ENABLE_LOCKDEP, default ON) every Mutex belongs to a named
//     lock class and acquisitions feed the global acquired-before graph, so
//     a lock-order inversion aborts deterministically the first time both
//     orders are ever *acquired* — no actual deadlock schedule needed.
//
// Every Mutex must be constructed with its lock-class name, spelled
// "Owner::member" (see DESIGN.md "Lock hierarchy"). All instances sharing a
// name form one lockdep class, so two instances of the same class may never
// be held simultaneously by one thread.
//
// The FRACTAL_LOCKDEP macro must be consistent across a build tree (it is a
// global CMake compile definition); mixing instrumented and uninstrumented
// translation units would be an ODR violation.
#ifndef FRACTAL_UTIL_MUTEX_H_
#define FRACTAL_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/lockdep.h"
#include "util/thread_annotations.h"

namespace fractal {

/// Annotated exclusive mutex. Non-reentrant.
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` is the lockdep class name ("Owner::member"); it must outlive
  /// the process (string literals only).
  explicit Mutex(const char* name)
#ifdef FRACTAL_LOCKDEP
      : lock_class_(lockdep::RegisterClass(name))
#endif
  {
    (void)name;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#ifdef FRACTAL_LOCKDEP
    // Before blocking, so an inversion reports instead of deadlocking.
    lockdep::OnAcquire(lock_class_);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
#ifdef FRACTAL_LOCKDEP
    // Pop the held stack *before* the underlying unlock: once mu_.unlock()
    // returns, a rendezvous peer may legally destroy this Mutex (e.g. the
    // stack-allocated MessageBus::Request after its `done` flip), so
    // `this` must not be touched afterwards.
    lockdep::OnRelease(lock_class_);
#endif
    mu_.unlock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#ifdef FRACTAL_LOCKDEP
    // A successful try-lock cannot deadlock, but it still documents an
    // acquired-before edge for threads that later block on the same pair.
    lockdep::OnAcquire(lock_class_);
#endif
    return true;
  }

  /// Checks (in lockdep builds) that the calling thread holds a lock of
  /// this mutex's class; tells the static analysis the capability is held.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#ifdef FRACTAL_LOCKDEP
    lockdep::AssertHeld(lock_class_);
#endif
  }

  // BasicLockable interface for std::condition_variable_any; routed through
  // Lock/Unlock so the lockdep held stack stays accurate across CondVar
  // waits. Prefer the capitalized names (or MutexLock) in user code.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

 private:
  std::mutex mu_;
#ifdef FRACTAL_LOCKDEP
  const lockdep::LockClass* lock_class_;
#endif
};

/// RAII lock for a Mutex (std::lock_guard equivalent).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with Mutex. Waits release and re-acquire the
/// mutex through the instrumented path. Callers write explicit predicate
/// loops —
///     MutexLock lock(mu_);
///     while (!predicate) cv_.Wait(mu_);
/// — rather than passing predicate lambdas, so the guarded reads stay in a
/// scope the static analysis can see holds the lock.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits for a notification (or a spurious
  /// wakeup — always re-check the predicate), and re-acquires `mu`.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Like Wait, but returns after at most `timeout_us` microseconds.
  /// Returns true when woken by a notification (or spuriously — always
  /// re-check the predicate), false on timeout. Microsecond granularity
  /// serves the message bus's steal-RPC deadlines
  /// (NetworkConfig::request_timeout_micros is far below 1 ms in tests).
  bool WaitForMicros(Mutex& mu, int64_t timeout_us) REQUIRES(mu) {
    return cv_.wait_for(mu, std::chrono::microseconds(timeout_us)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace fractal

#endif  // FRACTAL_UTIL_MUTEX_H_
