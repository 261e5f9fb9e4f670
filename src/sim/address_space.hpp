// One run's simulated address space.
//
// Every byte whose address the simulation sees — allocator reservations
// (alloc/page_provider), ORT lock tables, fiber stacks, the allocator
// models' probed metadata and the workloads' shared roots — is carved from
// one reservation owned by the run context (sim/context.hpp). The cache
// model's set index, the ORT's stripe index and the NUMA registry's home
// ranges therefore see one layout, decided by the run alone:
//
//  * the reservation is one PROT_NONE, MAP_NORESERVE mapping of kBytes,
//    made on the first carve, and its base is aligned to kBytes — at least
//    the span of every simulated index (the cache model's 2 MiB of sets,
//    the ORT's 2^(ort_log2 + shift) for ort_log2 + shift <= 36) — so every
//    index depends only on an address's offset in the region, never on
//    where the host put the region;
//  * the allocator models' reservations are carved first-fit from the top
//    down — the order in which Linux places anonymous mappings — and
//    everything else the run owns (ORT tables, fiber stacks, model
//    metadata, workload roots) first-fit from the base up, over one
//    sorted, coalesced free list. The same sequence of carves and releases
//    yields the same offsets in every process, and a root never fills an
//    alignment gap beside a reservation, where its ORT stripe would alias
//    the reservation's first block;
//  * a carved range is mapped read-write and zeroed; a released range is
//    mapped PROT_NONE again, so its pages leave the resident set.
//
// A probe whose address lies outside the region is counted in
// sim.probe.unregistered (sim/engine.cpp): such an address would make the
// run depend on the host's layout.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace tmx::sim {

class AddressSpace {
 public:
  static constexpr std::size_t kBytes = std::size_t{1} << 36;  // 64 GiB
  static constexpr std::size_t kPage = 4096;

  // Which end a carve is taken from: the top for model reservations, the
  // base for everything else.
  enum class End { kTop, kBase };

  constexpr AddressSpace() = default;
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // `bytes` (rounded up to whole pages) of zeroed read-write memory whose
  // offset is a multiple of `alignment` (a power of two): the fit nearest
  // `end`. nullptr when the region is full or the host refuses the pages.
  void* carve(std::size_t bytes, std::size_t alignment, End end);

  // Returns a carved range: `p` and `bytes` as passed to and returned by
  // carve().
  void release(void* p, std::size_t bytes);

  // The region's base address; 0 until the first carve.
  std::uintptr_t base() const { return base_.load(std::memory_order_acquire); }

  bool contains(std::uintptr_t addr) const {
    const std::uintptr_t b = base();
    return b != 0 && addr - b < kBytes;
  }

  // `addr`'s offset in the region (contains(addr) must hold).
  std::uintptr_t offset(std::uintptr_t addr) const { return addr - base(); }

  // `addr`'s offset in whichever run's region holds it. Every region's base
  // is aligned to kBytes, so this needs no region at hand, and a seeded run
  // prints the same offsets in every process.
  static constexpr std::uintptr_t offset_of(std::uintptr_t addr) {
    return addr & (kBytes - 1);
  }

 private:
  struct Free {
    std::uintptr_t begin;
    std::uintptr_t end;
  };

  std::mutex mu_;
  std::atomic<std::uintptr_t> base_{0};
  std::vector<Free> free_;  // sorted by begin, disjoint, never adjacent
};

}  // namespace tmx::sim
