// Model of a jemalloc-style allocator (in the spirit of jemalloc 3.x) —
// an *extension*: the paper studied Glibc/Hoard/TBB/TCMalloc; this model
// probes whether its conclusions extend to another modern design.
//
// Structural properties modeled:
//   * arenas (default four), assigned to threads round-robin, each feeding
//     from 4MB-aligned chunks; a lock per arena;
//   * small size classes (quantum-spaced 16-byte steps up to 128, then
//     coarser) served from page *runs*: a run dedicates contiguous pages
//     to one class and tracks regions with a bitmap, handing out the
//     lowest free region — so allocation is address-ordered, unlike the
//     LIFO free lists of the other models (a distinct layout behavior);
//   * a per-thread cache (tcache) in front of the arenas; flushes return
//     regions to their *origin* run (false-sharing avoidance, like Hoard);
//   * large requests take whole page runs; huge requests map directly.
#pragma once

#include <array>
#include <atomic>

#include "alloc/allocator.hpp"
#include "alloc/page_provider.hpp"
#include "sim/sync.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::alloc {

class JemallocModelAllocator final : public Allocator {
 public:
  JemallocModelAllocator();
  ~JemallocModelAllocator() override;

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;
  std::size_t usable_size(const void* p) const override;
  const AllocatorTraits& traits() const override { return traits_; }

  static constexpr std::size_t kChunkSize = 4ull << 20;  // 4MB, aligned
  static constexpr std::size_t kPageSize = 4096;
  static constexpr std::size_t kMaxSmall = 3584;   // largest small class
  static constexpr std::size_t kMaxLarge = kChunkSize / 2;
  static constexpr int kNumArenas = 4;
  static constexpr std::size_t kTcacheCap = 32;    // objects per class

  static std::size_t class_index(std::size_t size);
  static std::size_t class_size(std::size_t cls);
  static std::size_t num_classes();

 private:
  struct Run;
  struct Chunk;
  struct Arena;
  struct Tcache;

  Arena* arena_for_thread(int tid);
  Run* new_run(Arena* a, std::size_t cls);          // arena lock held
  void* run_alloc_region(Run* r);                   // arena lock held
  void run_free_region(Run* r, void* p);            // arena lock held
  void* arena_alloc_small(Arena* a, std::size_t cls);
  void free_to_origin(void* p);
  void* allocate_large(std::size_t size);
  void* allocate_huge(std::size_t size);

  AllocatorTraits traits_;
  PageProvider pages_;
  // Probed, so they live in the run's address space.
  sim::RegionPtr<std::array<Arena, kNumArenas>> arenas_;
  sim::RegionPtr<std::array<Padded<Tcache>, kMaxThreads>> tcaches_;
};

}  // namespace tmx::alloc
