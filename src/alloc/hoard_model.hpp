// Model of the Hoard allocator (Berger et al.), per Section 3.2 of the paper
// and Table 1:
//   * 64KB superblocks, 64KB-aligned, each dedicated to one size class;
//     size classes a power of two apart (bounded internal fragmentation);
//   * per-thread heaps assigned by hashing the thread id, plus one global
//     heap; a lock per heap and per superblock;
//   * blocks return to the superblock they were allocated from (false
//     sharing avoidance); empty superblocks return to the global heap;
//   * a synchronization-free thread-private cache for blocks <= 256 bytes
//     (modern Hoard's "local heaps"), flushed back to owning superblocks.
#pragma once

#include <array>
#include <atomic>

#include "alloc/allocator.hpp"
#include "alloc/page_provider.hpp"
#include "sim/sync.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::alloc {

class HoardModelAllocator final : public Allocator {
 public:
  HoardModelAllocator();
  ~HoardModelAllocator() override;

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;
  std::size_t usable_size(const void* p) const override;
  const AllocatorTraits& traits() const override { return traits_; }

  static constexpr std::size_t kSuperblockSize = 64 * 1024;
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kMaxBlock = 32 * 1024;  // half a superblock
  static constexpr std::size_t kCacheMaxBlock = 256;   // fast-path bound
  static constexpr int kHeapCount = 16;  // 2x the paper's core count

  static constexpr std::size_t kNumClasses = 12;  // 16,32,...,32768
  static std::size_t class_index(std::size_t size);
  static std::size_t class_size(std::size_t cls) { return kMinBlock << cls; }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Superblock;
  struct Heap;
  struct LocalCache;

  Heap* heap_for_thread(int tid);
  Superblock* new_superblock(std::size_t cls);
  // Pops up to `want` blocks from `heap`'s superblocks of class `cls` into
  // `out`; returns how many were obtained. Takes the heap lock.
  std::size_t pop_blocks(Heap* heap, std::size_t cls, FreeNode** out,
                         std::size_t want);
  void free_to_superblock(void* p, Superblock* sb);
  void flush_cache(LocalCache& cache, std::size_t cls, std::size_t keep);
  void* allocate_large(std::size_t size);

  AllocatorTraits traits_;
  PageProvider pages_;
  std::array<Heap, kHeapCount>* heaps_;
  Heap* global_;
  // Probed, so it lives in the run's address space.
  sim::RegionPtr<std::array<Padded<LocalCache>, kMaxThreads>> caches_;
};

}  // namespace tmx::alloc
