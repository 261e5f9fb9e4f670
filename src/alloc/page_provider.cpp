#include "alloc/page_provider.hpp"

#include <algorithm>
#include <cstring>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/numa.hpp"
#include "util/macros.hpp"

namespace tmx::alloc {

PageProvider::~PageProvider() {
  for (const Mapping& m : mappings_) {
    sim::numa_unregister_range(m.base);
    space_.release(m.base, m.length);
  }
}

unsigned PageProvider::home_node_for_next_reservation() {
  const unsigned nodes = std::max(1u, sim::numa_nodes());
  switch (numa_.policy) {
    case NumaOptions::Policy::kInterleave:
      return interleave_next_.fetch_add(1, std::memory_order_relaxed) % nodes;
    case NumaOptions::Policy::kBind:
      // harness::RunContext refuses a bind node the topology lacks.
      TMX_ASSERT(numa_.bind_node < nodes);
      return numa_.bind_node;
    case NumaOptions::Policy::kFirstTouch:
      break;
  }
  const int self = sim::numa_self_node();
  return self > 0 ? static_cast<unsigned>(self) : 0;
}

void* PageProvider::reserve(std::size_t size, std::size_t alignment) {
  return reserve_impl(size, alignment, -1);
}

void* PageProvider::reserve_on_node(std::size_t size, std::size_t alignment,
                                    unsigned node) {
  return reserve_impl(size, alignment, static_cast<int>(node));
}

void* PageProvider::reserve_impl(std::size_t size, std::size_t alignment,
                                 int node_override) {
  TMX_ASSERT(is_pow2(alignment));
  sim::tick(sim::Cost::kSyscall);
  const std::size_t page = kPageSize;
  size = round_up(size, page);
  if (alignment < page) alignment = page;

  // Simulated OS exhaustion (fault plane): fail before touching the host.
  if (TMX_UNLIKELY(fault::enabled()) &&
      fault::should_fail_reserve(size, total_reserved())) {
    return nullptr;
  }

  // A refused carve is a recoverable OOM, not an invariant violation: it
  // propagates to the models as nullptr exactly like an injected
  // reservation failure.
  void* const base =
      space_.carve(size, alignment, sim::AddressSpace::End::kTop);
  if (TMX_UNLIKELY(base == nullptr)) return nullptr;

  // Home the reservation: policy decides the node (unless the caller pinned
  // one, as remap() does to preserve locality), the sim registry makes the
  // cache model and sharded ORT see it. Host-level bookkeeping only.
  const unsigned node = node_override >= 0
                            ? static_cast<unsigned>(node_override)
                            : home_node_for_next_reservation();
  {
    sim::SpinGuard g(lock_);
    mappings_.push_back({base, size, node});
  }
  sim::numa_register_range(base, size, node);
  node_reserved_[std::min(node, kMaxNodes - 1)].fetch_add(
      size, std::memory_order_relaxed);
  const std::size_t now = total_.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return base;
}

bool PageProvider::release(void* base) {
  if (base == nullptr) return false;
  Mapping m{};
  {
    sim::SpinGuard g(lock_);
    auto it = std::find_if(mappings_.begin(), mappings_.end(),
                           [&](const Mapping& e) { return e.base == base; });
    if (it == mappings_.end()) return false;
    m = *it;
    mappings_.erase(it);
  }
  sim::tick(sim::Cost::kSyscall);
  sim::numa_unregister_range(m.base);
  space_.release(m.base, m.length);
  node_reserved_[std::min(m.node, kMaxNodes - 1)].fetch_sub(
      m.length, std::memory_order_relaxed);
  total_.fetch_sub(m.length, std::memory_order_relaxed);
  // peak_ deliberately keeps its high-water mark.
  return true;
}

void* PageProvider::remap(void* base) {
  Mapping m{};
  {
    sim::SpinGuard g(lock_);
    auto it = std::find_if(mappings_.begin(), mappings_.end(),
                           [&](const Mapping& e) { return e.base == base; });
    if (it == mappings_.end()) return nullptr;
    m = *it;
  }
  // The reservation's length is already page-rounded and its base is at
  // least page-aligned; re-reserving with page alignment preserves both.
  // Fault-plane refusal (or a full address space) surfaces here as nullptr,
  // with the original reservation untouched — the compaction caller keeps
  // the block where it is.
  void* fresh = reserve_impl(m.length, kPageSize, static_cast<int>(m.node));
  if (fresh == nullptr) return nullptr;
  std::memcpy(fresh, m.base, m.length);
  release(m.base);
  return fresh;
}

int PageProvider::reservation_node(const void* base) const {
  sim::SpinGuard g(lock_);
  for (const Mapping& e : mappings_) {
    if (e.base == base) return static_cast<int>(e.node);
  }
  return -1;
}

}  // namespace tmx::alloc
