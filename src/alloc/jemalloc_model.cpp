#include "alloc/jemalloc_model.hpp"

#include <new>

#include "sim/engine.hpp"

namespace tmx::alloc {

namespace {
constexpr std::uint32_t kChunkMagic = 0x6a656d63;  // "jemc"
constexpr std::uint32_t kHugeMagic = 0x6a656d68;   // "jemh"

struct HugeHeader {
  std::uint32_t magic;
  std::size_t size;
};

// Quantum-spaced small classes (16-byte steps to 128), then cacheline and
// sub-page spacing — jemalloc 3.x's layout.
constexpr std::size_t kClassTable[] = {
    8,    16,   32,   48,   64,   80,   96,   112,  128,   // quantum
    192,  256,  320,  384,  448,  512,                     // cacheline
    768,  1024, 1280, 1536, 1792, 2048, 2560, 3072, 3584,  // sub-page
};
constexpr std::size_t kNumClasses = sizeof(kClassTable) / sizeof(std::size_t);

// Pages per run, chosen so a run holds a decent number of regions.
std::size_t run_pages_for(std::size_t region_size) {
  const std::size_t want = region_size <= 512 ? 1 : 4;
  return want;
}
}  // namespace

std::size_t JemallocModelAllocator::num_classes() { return kNumClasses; }

std::size_t JemallocModelAllocator::class_index(std::size_t size) {
  for (std::size_t i = 0; i < kNumClasses; ++i) {
    if (size <= kClassTable[i]) return i;
  }
  TMX_ASSERT_MSG(false, "class_index called for a large size");
  return 0;
}

std::size_t JemallocModelAllocator::class_size(std::size_t cls) {
  return kClassTable[cls];
}

// A run: contiguous pages of one chunk dedicated to one size class,
// regions tracked by a bitmap; allocation returns the lowest free region.
struct JemallocModelAllocator::Run {
  std::uint16_t cls;
  std::uint16_t npages;
  std::uint32_t nregions;
  std::uint32_t nfree;
  char* base;          // first region
  Run* next;           // arena's non-full run list for this class
  Run* prev;
  std::uint64_t bitmap[8];  // 1 = free; supports up to 512 regions

  void init(std::size_t c, char* region_base, std::size_t pages) {
    cls = static_cast<std::uint16_t>(c);
    npages = static_cast<std::uint16_t>(pages);
    base = region_base;
    nregions = static_cast<std::uint32_t>(pages * kPageSize /
                                          kClassTable[c]);
    if (nregions > 512) nregions = 512;
    nfree = nregions;
    for (auto& w : bitmap) w = 0;
    for (std::uint32_t i = 0; i < nregions; ++i) {
      bitmap[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    next = prev = nullptr;
  }
};

// A 4MB chunk: header + page map (page index -> owning run, or a large
// allocation size), followed by the usable pages.
struct JemallocModelAllocator::Chunk {
  std::uint32_t magic;
  Arena* arena;
  static constexpr std::size_t kPages = kChunkSize / kPageSize;
  // map[i]: nullptr = unassigned; otherwise the Run covering that page.
  Run* page_run[kPages];
  std::size_t large_pages[kPages];  // >0 at the head page of a large alloc
  std::size_t next_free_page;
  Chunk* next;

  char* page(std::size_t i) {
    return reinterpret_cast<char*>(this) + i * kPageSize;
  }
  static Chunk* of(const void* p) {
    return reinterpret_cast<Chunk*>(
        round_down(reinterpret_cast<std::uintptr_t>(p), kChunkSize));
  }
  std::size_t page_index(const void* p) const {
    return (reinterpret_cast<std::uintptr_t>(p) -
            reinterpret_cast<std::uintptr_t>(this)) /
           kPageSize;
  }
};

struct JemallocModelAllocator::Arena {
  sim::SpinLock lock;
  Chunk* chunks = nullptr;
  Run* nonfull[kNumClasses] = {};
  // Run headers live outside the chunks (metadata arena), recycled here.
  Run* run_freelist = nullptr;
};

struct JemallocModelAllocator::Tcache {
  struct PerClass {
    void* items[kTcacheCap];
    std::uint32_t count = 0;
  };
  PerClass cls[kNumClasses];
};

JemallocModelAllocator::JemallocModelAllocator() {
  traits_ = AllocatorTraits{
      .name = "jemalloc",
      .models = "jemalloc 3.x style (extension; not studied in the paper)",
      .metadata = "Per run (page map)",
      // Run/page-map metadata is out of band (chunk headers, not per block).
      .tag_offset = 0,
      .tag_bytes = 0,
      .min_block = 8,
      .fast_path = "<= 3584 bytes (per-thread tcache)",
      .granularity = "4MB chunks, page runs per size class",
      .synchronization =
          "A lock per arena (4 arenas, threads round-robin); the tcache "
          "front is synchronization-free"};
  adopt_page_provider(&pages_);
  arenas_ = sim::make_region<std::array<Arena, kNumArenas>>();
  tcaches_ = sim::make_region<std::array<Padded<Tcache>, kMaxThreads>>();
}

JemallocModelAllocator::~JemallocModelAllocator() {
  for (Arena& a : *arenas_) {
    while (a.run_freelist != nullptr) {
      Run* r = a.run_freelist;
      a.run_freelist = r->next;
      delete r;
    }
    // Run headers still linked in nonfull lists or referenced by page maps
    // are owned by the chunks' lifetime; release them too.
    for (Chunk* c = a.chunks; c != nullptr; c = c->next) {
      Run* last = nullptr;
      for (std::size_t i = 0; i < Chunk::kPages; ++i) {
        if (c->page_run[i] != nullptr && c->page_run[i] != last) {
          last = c->page_run[i];
          delete last;
        }
      }
    }
  }
}

JemallocModelAllocator::Arena* JemallocModelAllocator::arena_for_thread(
    int tid) {
  return &(*arenas_)[tid % kNumArenas];
}

JemallocModelAllocator::Run* JemallocModelAllocator::new_run(
    Arena* a, std::size_t cls) {
  const std::size_t pages = run_pages_for(kClassTable[cls]);
  // Find a chunk with enough tail pages, or map a new one.
  Chunk* c = a->chunks;
  while (c != nullptr && c->next_free_page + pages > Chunk::kPages) {
    c = c->next;
  }
  if (c == nullptr) {
    void* mem = pages_.reserve(kChunkSize, kChunkSize);
    if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
    c = new (mem) Chunk();
    c->magic = kChunkMagic;
    c->arena = a;
    for (auto& pr : c->page_run) pr = nullptr;
    for (auto& lp : c->large_pages) lp = 0;
    // The header occupies the first pages; round up.
    c->next_free_page = (sizeof(Chunk) + kPageSize - 1) / kPageSize;
    c->next = a->chunks;
    a->chunks = c;
  }
  Run* r = a->run_freelist;
  if (r != nullptr) {
    a->run_freelist = r->next;
  } else {
    r = new Run();
  }
  r->init(cls, c->page(c->next_free_page), pages);
  for (std::size_t i = 0; i < pages; ++i) {
    c->page_run[c->next_free_page + i] = r;
  }
  c->next_free_page += pages;
  return r;
}

void* JemallocModelAllocator::run_alloc_region(Run* r) {
  // Lowest free region first: address-ordered allocation.
  for (std::size_t w = 0; w < 8; ++w) {
    if (r->bitmap[w] != 0) {
      const unsigned bit = __builtin_ctzll(r->bitmap[w]);
      r->bitmap[w] &= ~(std::uint64_t{1} << bit);
      --r->nfree;
      return r->base + (w * 64 + bit) * kClassTable[r->cls];
    }
  }
  TMX_ASSERT_MSG(false, "run_alloc_region on a full run");
  return nullptr;
}

void JemallocModelAllocator::run_free_region(Run* r, void* p) {
  const std::size_t idx =
      (static_cast<char*>(p) - r->base) / kClassTable[r->cls];
  TMX_ASSERT(idx < r->nregions);
  TMX_ASSERT_MSG((r->bitmap[idx / 64] & (std::uint64_t{1} << (idx % 64))) == 0,
                 "double free");
  r->bitmap[idx / 64] |= std::uint64_t{1} << (idx % 64);
  ++r->nfree;
}

void* JemallocModelAllocator::arena_alloc_small(Arena* a, std::size_t cls) {
  sim::SpinGuard g(a->lock);
  sim::probe(&a->nonfull[cls], 8, true);
  Run* r = a->nonfull[cls];
  if (r == nullptr) {
    r = new_run(a, cls);
    if (TMX_UNLIKELY(r == nullptr)) return nullptr;  // OS exhausted
    r->next = a->nonfull[cls];
    if (r->next != nullptr) r->next->prev = r;
    a->nonfull[cls] = r;
  }
  void* p = run_alloc_region(r);
  if (r->nfree == 0) {
    // Unlink the now-full run.
    a->nonfull[cls] = r->next;
    if (r->next != nullptr) r->next->prev = nullptr;
    r->next = r->prev = nullptr;
  }
  sim::tick(sim::Cost::kAllocSlow);
  return p;
}

void* JemallocModelAllocator::allocate(std::size_t size) {
  void* p = nullptr;
  if (size > kMaxLarge) {
    p = allocate_huge(size);
  } else if (size > kMaxSmall) {
    p = allocate_large(size);
  } else {
    const std::size_t cls = class_index(size);
    const int tid = sim::self_tid();
    auto& tc = (*tcaches_)[tid]->cls[cls];
    sim::probe(&tc, 16, true);
    if (tc.count > 0) {
      sim::tick(sim::Cost::kAllocFast);
      p = tc.items[--tc.count];
    } else {
      p = arena_alloc_small(arena_for_thread(tid), cls);
    }
  }
  if (p != nullptr) note_alloc_bytes(usable_size(p));
  return p;
}

void JemallocModelAllocator::free_to_origin(void* p) {
  Chunk* c = Chunk::of(p);
  Run* r = c->page_run[c->page_index(p)];
  TMX_ASSERT_MSG(r != nullptr, "free of a non-region pointer");
  Arena* a = c->arena;
  sim::SpinGuard g(a->lock);
  const bool was_full = r->nfree == 0;
  run_free_region(r, p);
  if (was_full) {
    // Back on the non-full list.
    r->next = a->nonfull[r->cls];
    if (r->next != nullptr) r->next->prev = r;
    r->prev = nullptr;
    a->nonfull[r->cls] = r;
  }
  sim::tick(sim::Cost::kAllocSlow);
}

void JemallocModelAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  note_free_bytes(usable_size(p));
  const std::uintptr_t base =
      round_down(reinterpret_cast<std::uintptr_t>(p), kChunkSize);
  const std::uint32_t magic = *reinterpret_cast<std::uint32_t*>(base);
  if (magic == kHugeMagic) {
    return;  // huge mappings stay with the provider
  }
  TMX_ASSERT_MSG(magic == kChunkMagic, "free of a non-heap pointer");
  Chunk* c = reinterpret_cast<Chunk*>(base);
  const std::size_t pi = c->page_index(p);
  if (c->large_pages[pi] > 0) {
    // Large allocation: pages are not recycled in this model (workloads
    // cycle small blocks; document as a simplification).
    return;
  }
  Run* r = c->page_run[pi];
  TMX_ASSERT_MSG(r != nullptr, "free of an unassigned page");
  if (r->cls < kNumClasses &&
      kClassTable[r->cls] <= kMaxSmall) {
    const int tid = sim::self_tid();
    auto& tc = (*tcaches_)[tid]->cls[r->cls];
    sim::probe(&tc, 16, true);
    if (tc.count < kTcacheCap) {
      tc.items[tc.count++] = p;
      sim::tick(sim::Cost::kAllocFast);
      return;
    }
    // Tcache full: flush the *oldest* half to their origin runs (as
    // jemalloc's tcache_bin_flush does), then cache this one.
    for (std::size_t i = 0; i < kTcacheCap / 2; ++i) {
      free_to_origin(tc.items[i]);
    }
    for (std::size_t i = kTcacheCap / 2; i < tc.count; ++i) {
      tc.items[i - kTcacheCap / 2] = tc.items[i];
    }
    tc.count -= kTcacheCap / 2;
    tc.items[tc.count++] = p;
    return;
  }
  free_to_origin(p);
}

void* JemallocModelAllocator::allocate_large(std::size_t size) {
  const std::size_t pages = (size + kPageSize - 1) / kPageSize;
  const int tid = sim::self_tid();
  Arena* a = arena_for_thread(tid);
  sim::SpinGuard g(a->lock);
  Chunk* c = a->chunks;
  while (c != nullptr && c->next_free_page + pages > Chunk::kPages) {
    c = c->next;
  }
  if (c == nullptr) {
    void* mem = pages_.reserve(kChunkSize, kChunkSize);
    if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
    c = new (mem) Chunk();
    c->magic = kChunkMagic;
    c->arena = a;
    for (auto& pr : c->page_run) pr = nullptr;
    for (auto& lp : c->large_pages) lp = 0;
    c->next_free_page = (sizeof(Chunk) + kPageSize - 1) / kPageSize;
    c->next = a->chunks;
    a->chunks = c;
  }
  char* p = c->page(c->next_free_page);
  c->large_pages[c->next_free_page] = size;
  c->next_free_page += pages;
  sim::tick(sim::Cost::kAllocSlow);
  return p;
}

void* JemallocModelAllocator::allocate_huge(std::size_t size) {
  const std::size_t total = round_up(size + kPageSize, kPageSize);
  char* mem = static_cast<char*>(pages_.reserve(total, kChunkSize));
  if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
  auto* h = reinterpret_cast<HugeHeader*>(mem);
  h->magic = kHugeMagic;
  h->size = size;
  sim::tick(sim::Cost::kSyscall);
  return mem + kPageSize;
}

std::size_t JemallocModelAllocator::usable_size(const void* p) const {
  const std::uintptr_t base =
      round_down(reinterpret_cast<std::uintptr_t>(p), kChunkSize);
  const std::uint32_t magic = *reinterpret_cast<const std::uint32_t*>(base);
  if (magic == kHugeMagic) {
    return reinterpret_cast<const HugeHeader*>(base)->size;
  }
  const Chunk* c = reinterpret_cast<const Chunk*>(base);
  const std::size_t pi = c->page_index(p);
  if (c->large_pages[pi] > 0) return c->large_pages[pi];
  return kClassTable[c->page_run[pi]->cls];
}

}  // namespace tmx::alloc
