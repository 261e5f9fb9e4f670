// Engine-aware synchronization primitives.
//
// All allocator- and STM-internal locking goes through these so that, under
// the simulator, contention is charged to virtual time (and yields create
// the interleavings that make contention observable), while under real
// threads they behave as ordinary TTAS spinlocks.
#pragma once

#include <atomic>
#include <cstdint>

#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::sim {

// Test-and-test-and-set lock. A waiter spins in relax(), which under the
// simulator returns only after another fiber has run, the only way the
// lock can have been released; each turn still costs Cost::kSpin.
class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    tick(Cost::kAtomicRmw);
    while (locked_.exchange(true, std::memory_order_acquire)) {
      do {
        relax();
      } while (locked_.load(std::memory_order_relaxed));
      tick(Cost::kAtomicRmw);
    }
    acquired();
  }

  bool try_lock() {
    tick(Cost::kAtomicRmw);
    if (locked_.exchange(true, std::memory_order_acquire)) return false;
    acquired();
    return true;
  }

  void unlock() {
    if (TMX_UNLIKELY(check_hooks_on())) {
      if (auto* f = check_hooks().lock_released) f(this);
    }
    // Record the release point in virtual time so a later acquirer whose
    // clock lags (because we executed a long uninterrupted block) still
    // pays for the full holding window.
    const std::uint64_t now = now_cycles();
    std::uint64_t prev = busy_until_.load(std::memory_order_relaxed);
    while (prev < now && !busy_until_.compare_exchange_weak(
                             prev, now, std::memory_order_relaxed)) {
    }
    locked_.store(false, std::memory_order_release);
  }

 private:
  void acquired() {
    if (TMX_UNLIKELY(check_hooks_on())) {
      if (auto* f = check_hooks().lock_acquired) f(this);
    }
    advance_to(busy_until_.load(std::memory_order_relaxed));
    // Expose the holding window to the discrete-event scheduler: fibers at
    // the same virtual time get a chance to attempt the lock and observe
    // it held, which is how contention becomes measurable.
    yield();
  }

  std::atomic<bool> locked_{false};
  std::atomic<std::uint64_t> busy_until_{0};
};

// RAII guard (std::lock_guard works too; this one is header-local and cheap).
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& l) : lock_(l) { lock_.lock(); }
  ~SpinGuard() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

// Sense-reversing spin barrier usable under both engines. Under the
// simulator, waiting fibers spin in virtual time, which is what a spin
// barrier on real hardware does in wall time.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    if (TMX_UNLIKELY(check_hooks_on())) {
      if (auto* f = check_hooks().barrier_arrive) f(this);
    }
    const bool sense = !sense_.load(std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      count_.store(0, std::memory_order_relaxed);
      sense_.store(sense, std::memory_order_release);
    } else {
      while (sense_.load(std::memory_order_acquire) != sense) relax();
    }
    if (TMX_UNLIKELY(check_hooks_on())) {
      if (auto* f = check_hooks().barrier_depart) f(this);
    }
  }

 private:
  const int parties_;
  std::atomic<int> count_{0};
  std::atomic<bool> sense_{false};
};

}  // namespace tmx::sim
