#include "sim/address_space.hpp"

#include <sys/mman.h>

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "util/macros.hpp"

namespace tmx::sim {

namespace {

// Maps [addr, addr + bytes) anew: read-write and zeroed when carving,
// PROT_NONE without backing when releasing.
bool map_fixed(std::uintptr_t addr, std::size_t bytes, bool usable) {
  const int prot = usable ? PROT_READ | PROT_WRITE : PROT_NONE;
  const int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED |
                    (usable ? 0 : MAP_NORESERVE);
  if (mmap(reinterpret_cast<void*>(addr), bytes, prot, flags, -1, 0) ==
      MAP_FAILED) {
    return false;
  }
#if defined(__SANITIZE_ADDRESS__)
  // Fresh pages are addressable: drop any shadow poison a fiber stack's
  // unreturned frames left on these addresses in an earlier carve.
  ASAN_UNPOISON_MEMORY_REGION(reinterpret_cast<void*>(addr), bytes);
#endif
  return true;
}

}  // namespace

AddressSpace::~AddressSpace() {
  if (const std::uintptr_t b = base(); b != 0) {
    munmap(reinterpret_cast<void*>(b), kBytes);
  }
}

void* AddressSpace::carve(std::size_t bytes, std::size_t alignment, End end) {
  TMX_ASSERT(is_pow2(alignment));
  bytes = round_up(bytes == 0 ? 1 : bytes, kPage);
  alignment = std::max(alignment, kPage);
  std::lock_guard<std::mutex> g(mu_);
  if (base() == 0) {
    // Over-map, then trim to the kBytes-aligned window.
    const std::size_t over = 2 * kBytes;
    void* raw = mmap(nullptr, over, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    TMX_ASSERT_MSG(raw != MAP_FAILED, "cannot reserve the address space");
    const auto lo = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t b = round_up(lo, kBytes);
    if (b != lo) munmap(raw, b - lo);
    if (b + kBytes != lo + over) {
      munmap(reinterpret_cast<void*>(b + kBytes), lo + over - b - kBytes);
    }
    free_.push_back({b, b + kBytes});
    base_.store(b, std::memory_order_release);
  }
  const std::size_t n = free_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = end == End::kTop ? n - 1 - k : k;
    const Free f = free_[i];
    if (f.end - f.begin < bytes) continue;
    const std::uintptr_t at = end == End::kTop
                                  ? round_down(f.end - bytes, alignment)
                                  : round_up(f.begin, alignment);
    if (at < f.begin || at + bytes > f.end) continue;
    if (!map_fixed(at, bytes, true)) return nullptr;
    // Split the free range around [at, at + bytes).
    auto pos = free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    if (at + bytes != f.end) pos = free_.insert(pos, {at + bytes, f.end});
    if (f.begin != at) free_.insert(pos, {f.begin, at});
    return reinterpret_cast<void*>(at);
  }
  return nullptr;
}

void AddressSpace::release(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  bytes = round_up(bytes == 0 ? 1 : bytes, kPage);
  TMX_ASSERT(contains(at) && at + bytes - base() <= kBytes);
  const bool dropped = map_fixed(at, bytes, false);
  TMX_ASSERT_MSG(dropped, "cannot release address-space pages");
  std::lock_guard<std::mutex> g(mu_);
  // Insert before the first free range above, merging with both neighbours.
  auto next = std::lower_bound(
      free_.begin(), free_.end(), at,
      [](const Free& f, std::uintptr_t a) { return f.begin < a; });
  Free f{at, at + bytes};
  if (next != free_.begin() && std::prev(next)->end == f.begin) {
    f.begin = std::prev(next)->begin;
    next = free_.erase(std::prev(next));
  }
  if (next != free_.end() && next->begin == f.end) {
    f.end = next->end;
    next = free_.erase(next);
  }
  free_.insert(next, f);
}

}  // namespace tmx::sim
