#include "alloc/glibc_model.hpp"

#include <atomic>
#include <cstring>
#include <type_traits>

#include "sim/engine.hpp"

namespace tmx::alloc {
namespace {

// Chunk layout: a 16-byte boundary tag precedes every payload.
//   prev_size  - size of the previous chunk, valid only when it is free
//                (it doubles as the "footer" of the previous chunk);
//   size_flags - this chunk's size (multiple of 16) | flags.
struct ChunkHeader {
  std::size_t prev_size;
  std::size_t size_flags;
};
static_assert(sizeof(ChunkHeader) == 16);

constexpr std::size_t kPrevInUse = 0x1;
constexpr std::size_t kIsMmapped = 0x2;
constexpr std::size_t kFlagMask = 0xf;

ChunkHeader* header_of(void* payload) {
  return reinterpret_cast<ChunkHeader*>(static_cast<char*>(payload) -
                                        sizeof(ChunkHeader));
}
void* payload_of(ChunkHeader* h) {
  return reinterpret_cast<char*>(h) + sizeof(ChunkHeader);
}
// Words another thread may read without this model's lock, each accessed
// as a relaxed atomic (on x86-64 the same mov as a plain access). The
// owner of an allocated chunk reads its size (usable_size) while a
// neighbour's allocation or free rewrites the flag bits of the same word
// under the lock; the size bits the owner reads never change. And a free
// chunk's links and footer (fd, bk, the next chunk's prev_size) lie in
// its payload, which a doomed transaction's optimistic Tx::load_word may
// still read.
template <class T>
T load_relaxed(const T& word) {
  return std::atomic_ref<T>(const_cast<T&>(word))
      .load(std::memory_order_relaxed);
}
template <class T>
void store_relaxed(T& word, std::type_identity_t<T> v) {
  std::atomic_ref<T>(word).store(v, std::memory_order_relaxed);
}
std::size_t load_flags(const ChunkHeader* h) {
  return load_relaxed(h->size_flags);
}
void store_flags(ChunkHeader* h, std::size_t v) {
  store_relaxed(h->size_flags, v);
}
std::size_t chunk_size(const ChunkHeader* h) {
  return load_flags(h) & ~kFlagMask;
}
ChunkHeader* next_chunk(ChunkHeader* h) {
  return reinterpret_cast<ChunkHeader*>(reinterpret_cast<char*>(h) +
                                        chunk_size(h));
}

}  // namespace

// Free chunks keep a doubly-linked node in their payload (fastbins use
// only fd). Its links are relaxed atomics: see load_relaxed.
struct GlibcModelAllocator::FreeNode {
  FreeNode* fd;
  FreeNode* bk;

  FreeNode* next() const { return load_relaxed(fd); }
  // Pushes this node onto the front of the list `head` starts.
  void push(FreeNode*& head) {
    store_relaxed(fd, head);
    store_relaxed(bk, nullptr);
    if (head != nullptr) store_relaxed(head->bk, this);
    head = this;
  }
  // Takes this node out of the list `head` starts.
  void unlink(FreeNode*& head) {
    FreeNode* const f = next();
    FreeNode* const b = load_relaxed(bk);
    if (b != nullptr) {
      store_relaxed(b->fd, f);
    } else {
      head = f;
    }
    if (f != nullptr) store_relaxed(f->bk, b);
  }
};

struct GlibcModelAllocator::Arena {
  std::uint32_t magic;
  sim::SpinLock lock;
  // Circular list. Linked in under list_lock_, walked without it by
  // lock_some_arena: a release store publishes a new arena's fields.
  std::atomic<Arena*> next;
  char* top;    // first byte of the unused tail
  char* end;
  bool top_prev_in_use;       // is the chunk just below `top` in use?
  std::size_t top_prev_size;  // its size when free (its footer would sit at
                              // `top`, where no header exists yet)
  FreeNode* fastbins[kNumFastBins];
  FreeNode* smallbins[kNumSmallBins];
  FreeNode* large;  // unsorted large chunks, first-fit
};

namespace {
constexpr std::uint32_t kArenaMagic = 0x61726e61;  // "arna"

std::size_t request_to_chunk(std::size_t request) {
  const std::size_t need = request + sizeof(ChunkHeader);
  const std::size_t sz = round_up(need, 16);
  return sz < GlibcModelAllocator::kMinChunk ? GlibcModelAllocator::kMinChunk
                                             : sz;
}

std::size_t fast_index(std::size_t csize) {
  return (csize - GlibcModelAllocator::kMinChunk) / 16;
}
std::size_t small_index(std::size_t csize) {
  return (csize - GlibcModelAllocator::kMinChunk) / 16;
}
}  // namespace

GlibcModelAllocator::GlibcModelAllocator() {
  traits_ = AllocatorTraits{
      .name = "glibc",
      .models = "Glibc 2.11.1 (ptmalloc2)",
      .metadata = "Per block",
      // size_flags occupies [p-8, p); its low nibble holds mutable flag
      // bits (kPrevInUse flips as neighbors come and go), so the stable
      // checksummable tag is the upper 7 bytes: [p-7, p).
      .tag_offset = 7,
      .tag_bytes = 7,
      .min_block = kMinChunk,
      .fast_path = "<= 128 bytes (still requires the arena lock)",
      .granularity = "64MB-aligned arenas",
      .synchronization =
          "A lock per arena; on contention the thread hops to the next "
          "arena and creates a new one if all are busy"};
  adopt_page_provider(&pages_);
  Arena* main = create_arena();
  // A model with no main arena is unusable — constructing one is the
  // caller's invariant (fault plans must leave room for it).
  TMX_ASSERT_MSG(main != nullptr, "glibc model: no main arena");
  for (auto& slot : attached_) *slot = main;
}

GlibcModelAllocator::~GlibcModelAllocator() = default;

GlibcModelAllocator::Arena* GlibcModelAllocator::create_arena() {
  void* mem = pages_.reserve(kArenaSize, kArenaSize);
  if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
  auto* a = new (mem) Arena();
  a->magic = kArenaMagic;
  char* first = reinterpret_cast<char*>(round_up(
      reinterpret_cast<std::uintptr_t>(mem) + sizeof(Arena), 16));
  a->top = first;
  a->end = static_cast<char*>(mem) + kArenaSize;
  a->top_prev_in_use = true;  // nothing below the first chunk to merge with
  a->top_prev_size = 0;
  for (auto& b : a->fastbins) b = nullptr;
  for (auto& b : a->smallbins) b = nullptr;
  a->large = nullptr;

  sim::SpinGuard g(list_lock_);
  if (arena_head_ == nullptr) {
    a->next.store(a, std::memory_order_relaxed);
    arena_head_ = a;
  } else {
    a->next.store(arena_head_->next.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    arena_head_->next.store(a, std::memory_order_release);
  }
  arena_count_.fetch_add(1, std::memory_order_relaxed);
  return a;
}

GlibcModelAllocator::Arena* GlibcModelAllocator::lock_some_arena() {
  const int tid = sim::self_tid();
  Arena* preferred = *attached_[tid];
  // Fast case: the thread's arena is free.
  if (preferred->lock.try_lock()) return preferred;
  // Hop around the circular list looking for any unlocked arena.
  for (Arena* a = preferred->next.load(std::memory_order_acquire);
       a != preferred; a = a->next.load(std::memory_order_acquire)) {
    if (a->lock.try_lock()) {
      *attached_[tid] = a;
      return a;
    }
  }
  // Everyone is busy: create a brand-new arena for this thread (bounded so
  // pathological schedules cannot exhaust the address space).
  if (arena_count_.load(std::memory_order_relaxed) < kMaxThreads) {
    Arena* fresh = create_arena();
    if (fresh != nullptr) {
      fresh->lock.lock();
      *attached_[tid] = fresh;
      return fresh;
    }
    // OS exhausted: fall back to waiting on the preferred arena.
  }
  preferred->lock.lock();
  return preferred;
}

void* GlibcModelAllocator::allocate(std::size_t size) {
  void* p = nullptr;
  if (size + sizeof(ChunkHeader) > kMmapThreshold) {
    p = allocate_mmap(size);
  } else {
    const std::size_t csize = request_to_chunk(size);
    for (;;) {
      Arena* a = lock_some_arena();
      p = allocate_from(a, csize);
      a->lock.unlock();
      if (p != nullptr) break;
      // Arena exhausted (64MB): detach and retry on a fresh one. If the OS
      // refuses a fresh arena too, the allocation fails for good.
      Arena* fresh = create_arena();
      if (TMX_UNLIKELY(fresh == nullptr)) return nullptr;
      *attached_[sim::self_tid()] = fresh;
    }
  }
  if (p != nullptr) note_alloc_bytes(usable_size(p));
  return p;
}

void* GlibcModelAllocator::allocate_from(Arena* a, std::size_t csize) {
  // 1. Fastbin: exact-size LIFO list, no coalescing — the fast path.
  if (csize <= kFastMaxChunk) {
    FreeNode*& bin = a->fastbins[fast_index(csize)];
    sim::probe(&bin, 8, false);
    if (bin != nullptr) {
      FreeNode* n = bin;
      sim::probe(n, 16, true);
      bin = n->next();
      sim::tick(sim::Cost::kAllocFast);
      return n;  // header untouched: fast chunks stay "in use"
    }
  }
  sim::tick(sim::Cost::kAllocSlow);

  auto set_in_use = [&](ChunkHeader* h) {
    ChunkHeader* nx = next_chunk(h);
    if (reinterpret_cast<char*>(nx) == a->top) {
      a->top_prev_in_use = true;
    } else {
      store_flags(nx, load_flags(nx) | kPrevInUse);
    }
  };
  // Carve `csize` from free chunk `h` of size `have`; the remainder (if any)
  // becomes a new free chunk that stays in the bins.
  auto split_and_take = [&](ChunkHeader* h, std::size_t have) -> void* {
    if (have >= csize + kMinChunk) {
      ChunkHeader* rem = reinterpret_cast<ChunkHeader*>(
          reinterpret_cast<char*>(h) + csize);
      const std::size_t rem_size = have - csize;
      store_flags(rem, rem_size | kPrevInUse);  // `h` is being handed out
      // Footer for the remainder + mark it free for its successor.
      ChunkHeader* after = next_chunk(rem);
      if (reinterpret_cast<char*>(after) == a->top) {
        a->top_prev_in_use = false;
        a->top_prev_size = rem_size;
      } else {
        store_relaxed(after->prev_size, rem_size);
        store_flags(after, load_flags(after) & ~kPrevInUse);
      }
      store_flags(h, csize | (load_flags(h) & kPrevInUse));
      // Insert remainder into its bin.
      static_cast<FreeNode*>(payload_of(rem))
          ->push(rem_size <= kSmallMaxChunk
                     ? a->smallbins[small_index(rem_size)]
                     : a->large);
    } else {
      set_in_use(h);
    }
    sim::probe(h, 16, true);
    return payload_of(h);
  };

  // 2. Exact small bin.
  if (csize <= kSmallMaxChunk) {
    FreeNode*& bin = a->smallbins[small_index(csize)];
    sim::probe(&bin, 8, false);
    if (bin != nullptr) {
      FreeNode* n = bin;
      n->unlink(bin);
      ChunkHeader* h = header_of(n);
      set_in_use(h);
      sim::probe(h, 16, true);
      return payload_of(h);
    }
    // 3. Next-larger small bins (split the surplus).
    for (std::size_t i = small_index(csize) + 1; i < kNumSmallBins; ++i) {
      if (a->smallbins[i] != nullptr) {
        FreeNode* n = a->smallbins[i];
        n->unlink(a->smallbins[i]);
        ChunkHeader* h = header_of(n);
        return split_and_take(h, chunk_size(h));
      }
    }
  }
  // 4. Large list, first fit.
  for (FreeNode* n = a->large; n != nullptr; n = n->next()) {
    ChunkHeader* h = header_of(n);
    if (chunk_size(h) >= csize) {
      n->unlink(a->large);
      return split_and_take(h, chunk_size(h));
    }
  }
  // 5. Carve from the top of the arena.
  if (a->top + csize <= a->end) {
    auto* h = reinterpret_cast<ChunkHeader*>(a->top);
    store_flags(h, csize | (a->top_prev_in_use ? kPrevInUse : 0));
    // Materialize the pending footer of a free chunk sitting below top.
    store_relaxed(h->prev_size, a->top_prev_in_use ? 0 : a->top_prev_size);
    a->top += csize;
    a->top_prev_in_use = true;
    sim::probe(h, 16, true);
    return payload_of(h);
  }
  return nullptr;  // arena exhausted
}

void GlibcModelAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  note_free_bytes(usable_size(p));
  ChunkHeader* h = header_of(p);
  if (load_flags(h) & kIsMmapped) {
    // Large blocks were handed out by mmap; the pages stay with the
    // provider (virtual space only) — matching how rarely the modeled
    // workloads release >128KB blocks.
    return;
  }
  auto* a = reinterpret_cast<Arena*>(arena_base_of(p));
  TMX_ASSERT_MSG(a->magic == kArenaMagic, "free of a non-heap pointer");
  sim::SpinGuard g(a->lock);
  free_in(a, p);
}

void GlibcModelAllocator::free_in(Arena* a, void* p) {
  ChunkHeader* h = header_of(p);
  std::size_t csize = chunk_size(h);
  sim::probe(h, 16, true);

  // Fast path: small chunks go to the fastbin untouched (no coalescing).
  if (csize <= kFastMaxChunk) {
    auto* n = static_cast<FreeNode*>(p);
    FreeNode*& bin = a->fastbins[fast_index(csize)];
    store_relaxed(n->fd, bin);
    bin = n;
    sim::tick(sim::Cost::kAllocFast);
    return;
  }
  sim::tick(sim::Cost::kAllocSlow);

  auto unlink_any = [&](ChunkHeader* ch) {
    const std::size_t sz = chunk_size(ch);
    static_cast<FreeNode*>(payload_of(ch))
        ->unlink(sz <= kSmallMaxChunk ? a->smallbins[small_index(sz)]
                                      : a->large);
  };

  // Coalesce backward.
  if (!(load_flags(h) & kPrevInUse)) {
    const std::size_t psz = load_relaxed(h->prev_size);
    auto* prev = reinterpret_cast<ChunkHeader*>(
        reinterpret_cast<char*>(h) - psz);
    unlink_any(prev);
    store_flags(prev, (psz + csize) | (load_flags(prev) & kPrevInUse));
    h = prev;
    csize += psz;
  }
  auto fold_into_top = [&](ChunkHeader* c) {
    a->top = reinterpret_cast<char*>(c);
    a->top_prev_in_use = (load_flags(c) & kPrevInUse) != 0;
    a->top_prev_size =
        a->top_prev_in_use ? 0 : load_relaxed(c->prev_size);
  };
  // Coalesce forward (or fold into top).
  ChunkHeader* nx = next_chunk(h);
  if (reinterpret_cast<char*>(nx) == a->top) {
    fold_into_top(h);
    return;
  }
  ChunkHeader* after_nx = next_chunk(nx);
  const bool next_free =
      chunk_size(nx) > kFastMaxChunk &&
      (reinterpret_cast<char*>(after_nx) == a->top
           ? !a->top_prev_in_use
           : !(load_flags(after_nx) & kPrevInUse));
  if (next_free) {
    unlink_any(nx);
    csize += chunk_size(nx);
    store_flags(h, csize | (load_flags(h) & kPrevInUse));
    nx = next_chunk(h);
    if (reinterpret_cast<char*>(nx) == a->top) {
      fold_into_top(h);
      return;
    }
  }
  // Mark free for the successor (footer + flag) and bin it.
  store_relaxed(nx->prev_size, csize);
  store_flags(nx, load_flags(nx) & ~kPrevInUse);
  FreeNode*& head =
      csize <= kSmallMaxChunk ? a->smallbins[small_index(csize)] : a->large;
  static_cast<FreeNode*>(payload_of(h))->push(head);
  sim::probe(&head, 8, true);
}

void* GlibcModelAllocator::allocate_mmap(std::size_t request) {
  const std::size_t total =
      round_up(request + sizeof(ChunkHeader), 4096);
  char* mem = static_cast<char*>(pages_.reserve(total, 4096));
  if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OS exhausted
  auto* h = reinterpret_cast<ChunkHeader*>(mem);
  store_relaxed(h->prev_size, 0);
  store_flags(h, (total & ~kFlagMask) | kIsMmapped | kPrevInUse);
  return payload_of(h);
}

std::size_t GlibcModelAllocator::usable_size(const void* p) const {
  const ChunkHeader* h = reinterpret_cast<const ChunkHeader*>(
      static_cast<const char*>(p) - sizeof(ChunkHeader));
  return chunk_size(h) - sizeof(ChunkHeader);
}

}  // namespace tmx::alloc
