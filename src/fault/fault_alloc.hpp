// FaultyAllocator: applies the open FaultPlan's malloc-level faults to
// any allocator model, uniformly, without touching the models themselves.
//
// Faults applied here:
//  * kMalloc  — allocate() returns nullptr (rate/budget from the plan).
//  * kDelayFree — deallocate() parks the block in a per-thread queue and
//    only forwards it once the freeing thread's virtual clock has advanced
//    plan.delay_free_cycles, perturbing reuse patterns deterministically.
//    Parked blocks are force-flushed on destruction, so nothing leaks.
//
// The wrapper is intended for runs with a plan open; with the plane
// idle it forwards with a single predictable branch per call.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocator.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::fault {

class FaultyAllocator final : public alloc::ForwardingAllocator {
 public:
  using ForwardingAllocator::ForwardingAllocator;
  ~FaultyAllocator() override;

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;

  // Injection counters for this wrapper instance.
  std::uint64_t injected_oom() const;
  std::uint64_t delayed_frees() const;

 private:
  struct Parked {
    std::uint64_t release_at;  // virtual cycle when the free goes through
    void* ptr;
  };
  struct ThreadQueue {
    std::vector<Parked> parked;
    std::uint64_t injected_oom = 0;
    std::uint64_t delayed = 0;
  };

  // Forwards every parked free of the calling thread whose release time
  // has passed.
  void flush_due(ThreadQueue& q);

  std::array<Padded<ThreadQueue>, kMaxThreads> queues_{};
};

}  // namespace tmx::fault
