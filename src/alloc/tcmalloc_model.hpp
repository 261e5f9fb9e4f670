// Model of TCMalloc (gperftools), per Section 3.4 of the paper and Table 1:
//   * per-thread caches: one free list per size class, synchronization-free
//     for blocks <= 256KB; freed blocks go to the *current* thread's cache
//     (unlike Hoard/TBB, which return blocks to their origin);
//   * central free lists (one spinlock each) backed by spans of 8KB pages
//     from a central page heap (its own spinlock);
//   * the batch transferred from a central list to a thread cache grows by
//     one on every successive fetch (1, 2, 3, ...) — the incremental
//     behavior that hands *adjacent* blocks to different threads and causes
//     the false sharing illustrated in Figure 2;
//   * a garbage collector returns half of each list to the central lists
//     when a thread cache grows past a threshold.
//
// All spans are carved from one large aligned reservation so that the
// pagemap (page -> span) is a flat array with lock-free reads.
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/page_provider.hpp"
#include "sim/sync.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::alloc {

class TcmallocModelAllocator final : public Allocator {
 public:
  // `incremental_batch` selects the paper-described behavior (batch grows
  // 1,2,3,... per fetch). Passing false fixes the batch at a constant —
  // the counterfactual used by the batching ablation bench.
  explicit TcmallocModelAllocator(bool incremental_batch = true);
  ~TcmallocModelAllocator() override;

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;
  std::size_t usable_size(const void* p) const override;
  const AllocatorTraits& traits() const override { return traits_; }

  static constexpr std::size_t kPageSize = 8192;
  static constexpr std::size_t kRegionSize = 4ull << 30;  // virtual, lazy
  static constexpr std::size_t kMaxSmall = 256 * 1024;
  static constexpr std::size_t kCacheByteCap = 512 * 1024;  // GC threshold
  static constexpr std::size_t kMaxListLen = 256;
  static constexpr std::uint32_t kMaxBatch = 128;
  static constexpr std::size_t kMaxClasses = 64;

  static std::size_t class_index(std::size_t size);
  static std::size_t class_size(std::size_t cls);
  static std::size_t num_classes();

  // Observable for tests/benches: next fetch batch size of (tid, cls).
  std::uint32_t next_batch(int tid, std::size_t cls) const;

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Span {
    std::uint32_t cls;      // size class, or kLargeCls for whole-span allocs
    std::uint32_t npages;
    char* start;
  };
  static constexpr std::uint32_t kLargeCls = 0xffffffff;

  struct CentralList {
    sim::SpinLock lock;
    FreeNode* head = nullptr;
    std::size_t count = 0;
    char* bump = nullptr;  // carve region of the current span
    char* bump_end = nullptr;
  };
  struct ThreadCache;

  Span* new_span(std::size_t npages, std::uint32_t cls);  // page-heap lock
  Span* span_of(const void* p) const;
  // Pops/carves up to `want` objects of class `cls`; returns count obtained.
  std::size_t central_fetch(std::size_t cls, FreeNode** out,
                            std::size_t want);
  void central_release(std::size_t cls, FreeNode* head, std::size_t count);
  void cache_gc(ThreadCache& tc);
  void release_from_list(ThreadCache& tc, std::size_t cls, std::size_t keep);
  void* allocate_large(std::size_t size);

  AllocatorTraits traits_;
  PageProvider pages_;

  sim::SpinLock pageheap_lock_;
  char* region_ = nullptr;
  char* region_bump_ = nullptr;
  char* region_end_ = nullptr;
  std::vector<Span*> pagemap_;        // (addr - region) / kPageSize -> span
  std::vector<Span*> free_spans_;     // returned whole spans, first fit
  std::vector<std::unique_ptr<Span>> all_spans_;
  bool incremental_batch_;

  // Probed metadata lives in the run's address space.
  sim::RegionPtr<CentralList[]> central_;  // one per size class
  sim::RegionPtr<std::array<Padded<ThreadCache>, kMaxThreads>> caches_;
};

}  // namespace tmx::alloc
