#include "alloc/tbb_model.hpp"

#include <atomic>
#include <new>

#include "sim/engine.hpp"

namespace tmx::alloc {

namespace {
constexpr std::uint32_t kBlockMagic = 0x54626232;  // "Tbb2"
constexpr std::uint32_t kLargeMagic = 0x54624c67;  // "TbLg"

struct LargeHeader {
  std::uint32_t magic;
  std::size_t size;
};

// Fine-grained size classes: exact multiples of 8 up to 64, then a denser
// progression than power-of-two up to just under 8KB.
constexpr std::size_t kClassTable[] = {
    8,    16,   24,   32,   40,   48,   56,   64,   80,   96,   112,  128,
    160,  192,  224,  256,  320,  384,  448,  512,  640,  768,  896,  1024,
    1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096, 5120, 6144, 7168, 8064};
constexpr std::size_t kNumClasses = sizeof(kClassTable) / sizeof(std::size_t);

// Words another thread may read without holding this model's locks, each
// accessed as a relaxed atomic (on x86-64 the same mov as a plain access):
// a free object's link word, which a doomed transaction's optimistic
// Tx::load_word may read, and a block's public-list head, which its owner
// peeks at before taking the list's lock.
template <class T>
T load_relaxed(const T& word) {
  return std::atomic_ref<T>(const_cast<T&>(word))
      .load(std::memory_order_relaxed);
}
template <class T>
void store_relaxed(T& word, T v) {
  std::atomic_ref<T>(word).store(v, std::memory_order_relaxed);
}
}  // namespace

std::size_t TbbModelAllocator::num_classes() { return kNumClasses; }

std::size_t TbbModelAllocator::class_index(std::size_t size) {
  if (size <= 64) return size == 0 ? 0 : (size - 1) / 8;
  for (std::size_t i = 8; i < kNumClasses; ++i) {
    if (size <= kClassTable[i]) return i;
  }
  TMX_ASSERT_MSG(false, "class_index called for a large size");
  return 0;
}

std::size_t TbbModelAllocator::class_size(std::size_t cls) {
  return kClassTable[cls];
}

// A 16KB block: header at the base (the base address is discoverable from
// any interior pointer by masking), objects carved behind it.
struct TbbModelAllocator::Block {
  std::uint32_t magic;
  std::uint16_t cls;
  std::uint32_t object_size;
  int owner_tid;
  FreeNode* private_free;        // owner-only
  sim::SpinLock public_lock;
  FreeNode* public_free;         // cross-thread frees land here
  std::uint32_t public_count;
  char* bump;
  char* end;
  std::uint32_t used;            // live objects (owner-maintained)
  Block* next;                   // owner bin list / global empty stack
  Block* prev;

  void init_for_class(std::size_t c, int tid) {
    cls = static_cast<std::uint16_t>(c);
    object_size = static_cast<std::uint32_t>(kClassTable[c]);
    owner_tid = tid;
    private_free = nullptr;
    public_free = nullptr;
    public_count = 0;
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(this);
    // Carve at object_size strides from a 16-aligned start: consecutive
    // 16-byte objects sit exactly 16 bytes apart, as the paper's Figure 5b
    // layout requires. (Odd classes like 24/40 keep 8-byte alignment.)
    bump = reinterpret_cast<char*>(round_up(base + sizeof(Block), 16));
    end = reinterpret_cast<char*>(base + kBlockSize);
    used = 0;
    next = prev = nullptr;
  }
};

struct TbbModelAllocator::ThreadHeap {
  // Per size class, a list of blocks owned by this thread; the front block
  // is the active one.
  Block* bins[kNumClasses] = {};

  void push_front(std::size_t cls, Block* b) {
    b->prev = nullptr;
    b->next = bins[cls];
    if (bins[cls] != nullptr) bins[cls]->prev = b;
    bins[cls] = b;
  }
  void unlink(std::size_t cls, Block* b) {
    if (b->prev != nullptr) {
      b->prev->next = b->next;
    } else {
      bins[cls] = b->next;
    }
    if (b->next != nullptr) b->next->prev = b->prev;
    b->next = b->prev = nullptr;
  }
};

TbbModelAllocator::TbbModelAllocator() {
  traits_ = AllocatorTraits{
      .name = "tbb",
      .models = "TBBMalloc 4.1",
      .metadata = "Per size class",
      // Size-class metadata is per 16KB region header, out of band.
      .tag_offset = 0,
      .tag_bytes = 0,
      .min_block = kMinBlock,
      .fast_path = "< 8KB (thread-private heaps)",
      .granularity = "16KB per size class",
      .synchronization =
          "Private free lists are synchronization-free; each public free "
          "list and the global heap use a distinct spinlock"};
  adopt_page_provider(&pages_);
  heaps_ = new std::array<Padded<ThreadHeap>, kMaxThreads>();
}

TbbModelAllocator::~TbbModelAllocator() { delete heaps_; }

TbbModelAllocator::Block* TbbModelAllocator::fetch_block(std::size_t cls) {
  sim::SpinGuard g(global_lock_);
  Block* b = global_empty_;
  if (b != nullptr) {
    global_empty_ = b->next;
  } else {
    if (chunk_bump_ == nullptr ||
        chunk_bump_ + kBlockSize > chunk_end_) {
      // Replenish from the OS: a 1MB chunk split into 16KB blocks. A
      // refused reservation leaves the current (exhausted) chunk in place
      // so a later call retries cleanly.
      char* fresh_chunk =
          static_cast<char*>(pages_.reserve(kChunkSize, kBlockSize));
      if (TMX_UNLIKELY(fresh_chunk == nullptr)) return nullptr;
      chunk_bump_ = fresh_chunk;
      chunk_end_ = fresh_chunk + kChunkSize;
    }
    b = new (chunk_bump_) Block();
    b->magic = kBlockMagic;
    chunk_bump_ += kBlockSize;
  }
  b->init_for_class(cls, sim::self_tid());
  return b;
}

void* TbbModelAllocator::allocate(std::size_t size) {
  void* p = size > kMaxSmall ? allocate_large(size)
                             : allocate_small(class_index(size));
  if (p != nullptr) note_alloc_bytes(usable_size(p));
  return p;
}

void* TbbModelAllocator::allocate_small(std::size_t cls) {
  const int tid = sim::self_tid();
  ThreadHeap& heap = *(*heaps_)[tid];
  Block* b = heap.bins[cls];
  for (Block* scan = b; scan != nullptr; scan = scan->next) {
    sim::probe(scan, 64, false);
    // 1. Private free list: no synchronization at all.
    if (scan->private_free != nullptr) {
      FreeNode* n = scan->private_free;
      scan->private_free = load_relaxed(n->next);
      ++scan->used;
      sim::tick(sim::Cost::kAllocFast);
      return n;
    }
    // 2. Public free list: grab the whole list under its spinlock.
    if (load_relaxed(scan->public_free) != nullptr) {
      FreeNode* grabbed;
      std::uint32_t count;
      {
        sim::SpinGuard pg(scan->public_lock);
        grabbed = scan->public_free;
        count = scan->public_count;
        scan->public_free = nullptr;
        scan->public_count = 0;
      }
      scan->private_free = load_relaxed(grabbed->next);
      scan->used -= (count - 1);  // the node we return stays "used"
      sim::tick(sim::Cost::kAllocSlow);
      return grabbed;
    }
    // 3. Bump-carve from the block's virgin space.
    if (scan->bump + scan->object_size <= scan->end) {
      void* p = scan->bump;
      scan->bump += scan->object_size;
      ++scan->used;
      sim::tick(sim::Cost::kAllocFast);
      return p;
    }
  }
  // 4. All owned blocks are full: take a block from the global heap.
  Block* fresh = fetch_block(cls);
  if (TMX_UNLIKELY(fresh == nullptr)) return nullptr;  // OS exhausted
  heap.push_front(cls, fresh);
  void* p = fresh->bump;
  fresh->bump += fresh->object_size;
  fresh->used = 1;
  sim::tick(sim::Cost::kAllocSlow);
  return p;
}

void TbbModelAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  note_free_bytes(usable_size(p));
  const std::uintptr_t base =
      round_down(reinterpret_cast<std::uintptr_t>(p), kBlockSize);
  const std::uint32_t magic = *reinterpret_cast<std::uint32_t*>(base);
  if (magic == kLargeMagic) {
    return;  // large mappings stay with the provider
  }
  TMX_ASSERT_MSG(magic == kBlockMagic, "free of a non-heap pointer");
  auto* b = reinterpret_cast<Block*>(base);
  auto* n = static_cast<FreeNode*>(p);
  if (b->owner_tid == sim::self_tid()) {
    sim::probe(b, 64, true);
    store_relaxed(n->next, b->private_free);
    b->private_free = n;
    --b->used;
    sim::tick(sim::Cost::kAllocFast);
    // A fully-free, non-front block returns to the global heap to bound the
    // footprint (the paper's "empty superblocks are returned back"). The
    // public list must be checked under its lock: with no live objects and
    // an empty public list, no further free can target this block.
    ThreadHeap& heap = *(*heaps_)[b->owner_tid];
    if (b->used == 0 && heap.bins[b->cls] != b) {
      sim::SpinGuard check(b->public_lock);
      if (b->public_count == 0) {
        heap.unlink(b->cls, b);
        sim::SpinGuard g(global_lock_);
        b->next = global_empty_;
        global_empty_ = b;
      }
    }
    return;
  }
  // Cross-thread free: the public list, under its own spinlock.
  sim::SpinGuard pg(b->public_lock);
  sim::probe(&b->public_free, 16, true);
  store_relaxed(n->next, b->public_free);
  store_relaxed(b->public_free, n);
  ++b->public_count;
  sim::tick(sim::Cost::kAllocSlow);
}

void* TbbModelAllocator::allocate_large(std::size_t size) {
  const std::size_t total = round_up(size + kCacheLineSize, 4096);
  char* mem = static_cast<char*>(pages_.reserve(total, kBlockSize));
  if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
  auto* h = reinterpret_cast<LargeHeader*>(mem);
  h->magic = kLargeMagic;
  h->size = size;
  sim::tick(sim::Cost::kSyscall);
  return mem + kCacheLineSize;
}

std::size_t TbbModelAllocator::usable_size(const void* p) const {
  const std::uintptr_t base =
      round_down(reinterpret_cast<std::uintptr_t>(p), kBlockSize);
  const std::uint32_t magic = *reinterpret_cast<const std::uint32_t*>(base);
  if (magic == kLargeMagic) {
    return reinterpret_cast<const LargeHeader*>(base)->size;
  }
  return reinterpret_cast<const Block*>(base)->object_size;
}

}  // namespace tmx::alloc
