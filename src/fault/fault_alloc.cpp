#include "fault/fault_alloc.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace tmx::fault {

FaultyAllocator::~FaultyAllocator() {
  // Nothing may stay parked past the wrapper's lifetime.
  for (auto& q : queues_) {
    for (const Parked& p : q.value.parked) inner_->deallocate(p.ptr);
    q.value.parked.clear();
  }
}

void FaultyAllocator::flush_due(ThreadQueue& q) {
  const std::uint64_t now = sim::now_cycles();
  // Parked entries are release-time-ordered per thread (monotone clock +
  // fixed delay), so forwarding the due prefix preserves free order.
  std::size_t i = 0;
  while (i < q.parked.size() && q.parked[i].release_at <= now) {
    inner_->deallocate(q.parked[i].ptr);
    ++i;
  }
  if (i > 0) q.parked.erase(q.parked.begin(), q.parked.begin() + i);
}

void* FaultyAllocator::allocate(std::size_t size) {
  if (TMX_UNLIKELY(enabled())) {
    ThreadQueue& q = queues_[sim::self_tid()].value;
    if (!q.parked.empty()) flush_due(q);
    if (should_fail_alloc()) {
      ++q.injected_oom;
      return nullptr;
    }
  }
  return inner_->allocate(size);
}

void FaultyAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  if (TMX_UNLIKELY(enabled())) {
    ThreadQueue& q = queues_[sim::self_tid()].value;
    if (!q.parked.empty()) flush_due(q);
    if (should_delay_free()) {
      ++q.delayed;
      q.parked.push_back(
          Parked{sim::now_cycles() + plan().delay_free_cycles, p});
      return;
    }
  }
  inner_->deallocate(p);
}

std::uint64_t FaultyAllocator::injected_oom() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) n += q.value.injected_oom;
  return n;
}

std::uint64_t FaultyAllocator::delayed_frees() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) n += q.value.delayed;
  return n;
}

}  // namespace tmx::fault
