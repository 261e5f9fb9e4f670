#include "alloc/hoard_model.hpp"

#include <new>

#include "sim/engine.hpp"

namespace tmx::alloc {

namespace {
constexpr std::uint32_t kSuperblockMagic = 0x486f6172;  // "Hoar"
constexpr std::uint32_t kLargeMagic = 0x486f4c67;       // "HoLg"
constexpr std::size_t kCacheCap = 32;    // objects per thread-cache class
constexpr std::size_t kRefillBatch = 8;  // objects pulled per cache refill

struct LargeHeader {
  std::uint32_t magic;
  std::size_t size;
};
}  // namespace

struct HoardModelAllocator::Superblock {
  std::uint32_t magic;
  std::uint16_t cls;
  std::uint32_t block_size;
  sim::SpinLock lock;      // protects free/bump/used
  Heap* owner;             // heap currently holding this superblock
  FreeNode* free_list;
  char* bump;
  char* end;
  std::uint32_t capacity;
  std::uint32_t used;
  Superblock* next;  // links within the owner's bin
  Superblock* prev;
};

struct HoardModelAllocator::Heap {
  sim::SpinLock lock;
  Superblock* bins[kNumClasses];  // front superblock has free space first
  bool is_global;

  void push_front(std::size_t cls, Superblock* sb) {
    sb->prev = nullptr;
    sb->next = bins[cls];
    if (bins[cls] != nullptr) bins[cls]->prev = sb;
    bins[cls] = sb;
    sb->owner = this;
  }
  void unlink(std::size_t cls, Superblock* sb) {
    if (sb->prev != nullptr) {
      sb->prev->next = sb->next;
    } else {
      bins[cls] = sb->next;
    }
    if (sb->next != nullptr) sb->next->prev = sb->prev;
    sb->next = sb->prev = nullptr;
  }
};

struct HoardModelAllocator::LocalCache {
  struct PerClass {
    FreeNode* head = nullptr;
    std::uint32_t count = 0;
  };
  // Only classes up to kCacheMaxBlock (16..256 -> 5 classes) are used.
  PerClass cls[kNumClasses];
};

std::size_t HoardModelAllocator::class_index(std::size_t size) {
  if (size <= kMinBlock) return 0;
  return log2_ceil(size) - log2_floor(kMinBlock);
}

HoardModelAllocator::HoardModelAllocator() {
  traits_ = AllocatorTraits{
      .name = "hoard",
      .models = "Hoard 3.10",
      .metadata = "Per superblock",
      // Block size lives in the superblock header, not next to the payload.
      .tag_offset = 0,
      .tag_bytes = 0,
      .min_block = kMinBlock,
      .fast_path = "<= 256 bytes (thread-private cache)",
      .granularity = "64KB per superblock",
      .synchronization =
          "A lock per heap and per superblock; small blocks bypass both "
          "through a synchronization-free thread cache"};
  adopt_page_provider(&pages_);
  heaps_ = new std::array<Heap, kHeapCount>();
  for (Heap& h : *heaps_) {
    for (auto& b : h.bins) b = nullptr;
    h.is_global = false;
  }
  global_ = new Heap();
  for (auto& b : global_->bins) b = nullptr;
  global_->is_global = true;
  caches_ = sim::make_region<std::array<Padded<LocalCache>, kMaxThreads>>();
}

HoardModelAllocator::~HoardModelAllocator() {
  delete heaps_;
  delete global_;
}

HoardModelAllocator::Heap* HoardModelAllocator::heap_for_thread(int tid) {
  // Hash the thread id onto a heap, as Hoard does.
  const std::uint64_t h = (static_cast<std::uint64_t>(tid) * 2654435761u);
  return &(*heaps_)[h % kHeapCount];
}

HoardModelAllocator::Superblock* HoardModelAllocator::new_superblock(
    std::size_t cls) {
  void* mem = pages_.reserve(kSuperblockSize, kSuperblockSize);
  if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
  auto* sb = new (mem) Superblock();
  sb->magic = kSuperblockMagic;
  sb->cls = static_cast<std::uint16_t>(cls);
  sb->block_size = static_cast<std::uint32_t>(class_size(cls));
  sb->owner = nullptr;
  sb->free_list = nullptr;
  // Blocks are carved at block_size strides so consecutive allocations of a
  // class are exactly block_size apart (the Figure 5b layout for 16 bytes).
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(mem);
  sb->bump = reinterpret_cast<char*>(
      round_up(base + sizeof(Superblock), sb->block_size));
  sb->end = static_cast<char*>(mem) + kSuperblockSize;
  sb->capacity = static_cast<std::uint32_t>(
      (sb->end - sb->bump) / sb->block_size);
  sb->used = 0;
  sb->next = sb->prev = nullptr;
  return sb;
}

std::size_t HoardModelAllocator::pop_blocks(Heap* heap, std::size_t cls,
                                            FreeNode** out,
                                            std::size_t want) {
  sim::SpinGuard hg(heap->lock);
  std::size_t got = 0;
  while (got < want) {
    Superblock* sb = heap->bins[cls];
    // Skip full superblocks by rotating them to the back.
    Superblock* first = sb;
    while (sb != nullptr && sb->free_list == nullptr && sb->bump >= sb->end) {
      heap->unlink(cls, sb);
      // Append at back: walk to the end (bins are short in practice).
      Superblock* tail = heap->bins[cls];
      if (tail == nullptr) {
        heap->push_front(cls, sb);
        sb->owner = heap;
      } else {
        while (tail->next != nullptr) tail = tail->next;
        tail->next = sb;
        sb->prev = tail;
        sb->next = nullptr;
        sb->owner = heap;
      }
      sb = heap->bins[cls];
      if (sb == first) break;  // everything is full
    }
    if (sb == nullptr || (sb->free_list == nullptr && sb->bump >= sb->end)) {
      // No space in this heap: pull a superblock from the global heap, or
      // mint a new one from the OS.
      Superblock* fresh = nullptr;
      if (!heap->is_global) {
        sim::SpinGuard gg(global_->lock);
        fresh = global_->bins[cls];
        if (fresh != nullptr) global_->unlink(cls, fresh);
      }
      if (fresh == nullptr) fresh = new_superblock(cls);
      if (TMX_UNLIKELY(fresh == nullptr)) return got;  // possibly partial
      heap->push_front(cls, fresh);
      sb = fresh;
    }
    sim::SpinGuard sg(sb->lock);
    sim::probe(sb, 64, true);
    while (got < want) {
      if (sb->free_list != nullptr) {
        out[got++] = sb->free_list;
        sb->free_list = sb->free_list->next;
      } else if (sb->bump < sb->end) {
        out[got++] = reinterpret_cast<FreeNode*>(sb->bump);
        sb->bump += sb->block_size;
      } else {
        break;
      }
      ++sb->used;
    }
    if (got == want) break;
  }
  return got;
}

void* HoardModelAllocator::allocate(std::size_t size) {
  if (size > kMaxBlock) {
    void* p = allocate_large(size);
    if (p != nullptr) note_alloc_bytes(usable_size(p));
    return p;
  }
  const std::size_t cls = class_index(size);
  const std::size_t bsz = class_size(cls);
  const int tid = sim::self_tid();

  if (bsz <= kCacheMaxBlock) {
    // Synchronization-free fast path.
    auto& cc = (*caches_)[tid]->cls[cls];
    sim::probe(&cc, 16, true);
    if (cc.head != nullptr) {
      FreeNode* n = cc.head;
      cc.head = n->next;
      --cc.count;
      sim::tick(sim::Cost::kAllocFast);
      note_alloc_bytes(bsz);
      return n;
    }
    // Refill a small batch from the thread's heap.
    FreeNode* batch[kRefillBatch];
    const std::size_t got =
        pop_blocks(heap_for_thread(tid), cls, batch, kRefillBatch);
    if (TMX_UNLIKELY(got == 0)) return nullptr;  // heap exhausted
    // Reverse push keeps the cache handing out ascending (adjacent)
    // addresses, matching the carve order of the superblock.
    for (std::size_t i = got; i-- > 1;) {
      batch[i]->next = cc.head;
      cc.head = batch[i];
      ++cc.count;
    }
    sim::tick(sim::Cost::kAllocSlow);
    note_alloc_bytes(bsz);
    return batch[0];
  }

  FreeNode* one = nullptr;
  const std::size_t got = pop_blocks(heap_for_thread(tid), cls, &one, 1);
  sim::tick(sim::Cost::kAllocSlow);
  if (got == 1) note_alloc_bytes(bsz);
  return got == 1 ? one : nullptr;
}

void HoardModelAllocator::free_to_superblock(void* p, Superblock* sb) {
  // Blocks always return to their superblock of origin (Section 3.2).
  Heap* owner;
  for (;;) {
    owner = sb->owner;
    owner->lock.lock();
    if (sb->owner == owner) break;
    owner->lock.unlock();  // superblock migrated between heaps; retry
  }
  {
    sim::SpinGuard sg(sb->lock);
    sim::probe(sb, 64, true);
    auto* n = static_cast<FreeNode*>(p);
    n->next = sb->free_list;
    sb->free_list = n;
    --sb->used;
  }
  // Emptiness policy (simplified): a completely-free superblock leaves a
  // non-global heap for the global heap when the heap keeps another one.
  if (sb->used == 0 && !owner->is_global &&
      (sb->next != nullptr || sb->prev != nullptr ||
       owner->bins[sb->cls] != sb)) {
    owner->unlink(sb->cls, sb);
    owner->lock.unlock();
    sim::SpinGuard gg(global_->lock);
    global_->push_front(sb->cls, sb);
    return;
  }
  owner->lock.unlock();
}

void HoardModelAllocator::flush_cache(LocalCache& cache, std::size_t cls,
                                      std::size_t keep) {
  auto& cc = cache.cls[cls];
  while (cc.count > keep) {
    FreeNode* n = cc.head;
    cc.head = n->next;
    --cc.count;
    auto* sb = reinterpret_cast<Superblock*>(
        round_down(reinterpret_cast<std::uintptr_t>(n), kSuperblockSize));
    free_to_superblock(n, sb);
  }
}

void HoardModelAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  note_free_bytes(usable_size(p));
  const std::uintptr_t base =
      round_down(reinterpret_cast<std::uintptr_t>(p), kSuperblockSize);
  const std::uint32_t magic = *reinterpret_cast<std::uint32_t*>(base);
  if (magic == kLargeMagic) {
    return;  // large mappings stay with the provider (virtual space only)
  }
  TMX_ASSERT_MSG(magic == kSuperblockMagic, "free of a non-heap pointer");
  auto* sb = reinterpret_cast<Superblock*>(base);
  if (sb->block_size <= kCacheMaxBlock) {
    // Small blocks are freed locally, synchronization-free.
    const int tid = sim::self_tid();
    auto& cc = (*caches_)[tid]->cls[sb->cls];
    sim::probe(&cc, 16, true);
    auto* n = static_cast<FreeNode*>(p);
    n->next = cc.head;
    cc.head = n;
    ++cc.count;
    sim::tick(sim::Cost::kAllocFast);
    if (cc.count > kCacheCap) flush_cache(*(*caches_)[tid], sb->cls,
                                          kCacheCap / 2);
    return;
  }
  sim::tick(sim::Cost::kAllocSlow);
  free_to_superblock(p, sb);
}

void* HoardModelAllocator::allocate_large(std::size_t size) {
  // Payload starts one cache line into a 64KB-aligned mapping so that the
  // magic-tagged header is discoverable by masking, as for superblocks.
  const std::size_t total = round_up(size + kCacheLineSize, 4096);
  char* mem =
      static_cast<char*>(pages_.reserve(total, kSuperblockSize));
  if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
  auto* h = reinterpret_cast<LargeHeader*>(mem);
  h->magic = kLargeMagic;
  h->size = size;
  sim::tick(sim::Cost::kAllocSlow);
  return mem + kCacheLineSize;
}

std::size_t HoardModelAllocator::usable_size(const void* p) const {
  const std::uintptr_t base =
      round_down(reinterpret_cast<std::uintptr_t>(p), kSuperblockSize);
  const std::uint32_t magic = *reinterpret_cast<const std::uint32_t*>(base);
  if (magic == kLargeMagic) {
    return reinterpret_cast<const LargeHeader*>(base)->size;
  }
  return reinterpret_cast<const Superblock*>(base)->block_size;
}

}  // namespace tmx::alloc
