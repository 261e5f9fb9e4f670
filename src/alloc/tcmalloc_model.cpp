#include "alloc/tcmalloc_model.hpp"

#include <memory>

#include "sim/engine.hpp"

namespace tmx::alloc {

namespace {
// TCMalloc-style classes: 16-byte steps up to 128 (with an exact 48-byte
// class — Section 5.3), then a ~1.25x progression up to 256KB.
std::vector<std::size_t> build_classes() {
  std::vector<std::size_t> c = {8, 16, 32, 48, 64, 80, 96, 112, 128};
  std::size_t s = 128;
  while (s < TcmallocModelAllocator::kMaxSmall) {
    std::size_t nxt = s + s / 4;
    nxt = round_up(nxt, s >= 4096 ? 4096 : 64);
    if (nxt > TcmallocModelAllocator::kMaxSmall) {
      nxt = TcmallocModelAllocator::kMaxSmall;
    }
    c.push_back(nxt);
    s = nxt;
  }
  return c;
}

const std::vector<std::size_t>& classes() {
  static const std::vector<std::size_t> c = build_classes();
  return c;
}
}  // namespace

struct TcmallocModelAllocator::ThreadCache {
  struct PerClass {
    FreeNode* head = nullptr;
    std::uint32_t count = 0;
    std::uint32_t next_batch = 1;  // incremental: grows by one per fetch
  };
  PerClass cls[kMaxClasses];
  std::size_t total_bytes = 0;
};

std::size_t TcmallocModelAllocator::num_classes() {
  TMX_ASSERT(classes().size() <= kMaxClasses);
  return classes().size();
}

std::size_t TcmallocModelAllocator::class_index(std::size_t size) {
  const auto& c = classes();
  // Small table: linear scan is branch-predictable and plenty fast; the
  // first 9 classes cover the hot sizes.
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (size <= c[i]) return i;
  }
  TMX_ASSERT_MSG(false, "class_index called for a large size");
  return 0;
}

std::size_t TcmallocModelAllocator::class_size(std::size_t cls) {
  return classes()[cls];
}

TcmallocModelAllocator::TcmallocModelAllocator(bool incremental_batch)
    : incremental_batch_(incremental_batch) {
  traits_ = AllocatorTraits{
      .name = "tcmalloc",
      .models = "TCMalloc 2.1 (gperftools)",
      .metadata = "Per size class",
      // Sizes come from the span map keyed by page, out of band.
      .tag_offset = 0,
      .tag_bytes = 0,
      .min_block = 8,
      .fast_path = "<= 256KB (thread caches)",
      .granularity = "incremental (batch grows by one per central fetch)",
      .synchronization =
          "A spinlock per central free list; a spinlock for the central "
          "page heap; thread caches are synchronization-free"};
  adopt_page_provider(&pages_);
  central_ = sim::make_region_array<CentralList>(num_classes());
  caches_ = sim::make_region<std::array<Padded<ThreadCache>, kMaxThreads>>();
  region_ = static_cast<char*>(pages_.reserve(kRegionSize, kPageSize));
  // A model with no backing region at all is unusable — constructing one
  // is the caller's invariant (fault plans must leave room for it).
  TMX_ASSERT_MSG(region_ != nullptr, "tcmalloc model: no backing region");
  region_bump_ = region_;
  region_end_ = region_ + kRegionSize;
  pagemap_.assign(kRegionSize / kPageSize, nullptr);
}

TcmallocModelAllocator::~TcmallocModelAllocator() = default;

TcmallocModelAllocator::Span* TcmallocModelAllocator::new_span(
    std::size_t npages, std::uint32_t cls) {
  // Caller holds pageheap_lock_.
  sim::tick(sim::Cost::kAllocSlow);
  Span* sp = nullptr;
  for (std::size_t i = 0; i < free_spans_.size(); ++i) {
    if (free_spans_[i]->npages >= npages) {
      sp = free_spans_[i];
      free_spans_[i] = free_spans_.back();
      free_spans_.pop_back();
      break;
    }
  }
  if (sp == nullptr) {
    const std::size_t bytes = npages * kPageSize;
    // Region exhaustion is a recoverable OOM: the fixed pre-reserved heap
    // is a genuine bounded resource, and running out must propagate as
    // nullptr, not kill the process.
    if (TMX_UNLIKELY(region_bump_ + bytes > region_end_)) return nullptr;
    all_spans_.push_back(std::make_unique<Span>());
    sp = all_spans_.back().get();
    sp->start = region_bump_;
    sp->npages = static_cast<std::uint32_t>(npages);
    region_bump_ += bytes;
  }
  sp->cls = cls;
  const std::size_t first = (sp->start - region_) / kPageSize;
  for (std::size_t i = 0; i < sp->npages; ++i) pagemap_[first + i] = sp;
  return sp;
}

TcmallocModelAllocator::Span* TcmallocModelAllocator::span_of(
    const void* p) const {
  const char* cp = static_cast<const char*>(p);
  TMX_ASSERT_MSG(cp >= region_ && cp < region_end_,
                 "free of a non-heap pointer");
  return pagemap_[(cp - region_) / kPageSize];
}

std::size_t TcmallocModelAllocator::central_fetch(std::size_t cls,
                                                  FreeNode** out,
                                                  std::size_t want) {
  CentralList& cl = central_[cls];
  const std::size_t osize = class_size(cls);
  sim::SpinGuard g(cl.lock);
  sim::probe(&cl, 64, true);
  std::size_t got = 0;
  // Recycled objects first...
  while (got < want && cl.head != nullptr) {
    out[got++] = cl.head;
    cl.head = cl.head->next;
    --cl.count;
  }
  // ...then carve *consecutive* objects from the current span. This is what
  // hands adjacent addresses to whichever thread asks next (Figure 2).
  while (got < want) {
    if (cl.bump + osize > cl.bump_end) {
      const std::size_t npages =
          osize <= kPageSize ? 1 : (osize + kPageSize - 1) / kPageSize;
      Span* sp;
      {
        sim::SpinGuard pg(pageheap_lock_);
        sp = new_span(npages, static_cast<std::uint32_t>(cls));
      }
      if (TMX_UNLIKELY(sp == nullptr)) return got;  // possibly partial batch
      cl.bump = sp->start;
      cl.bump_end = sp->start + sp->npages * kPageSize;
    }
    out[got++] = reinterpret_cast<FreeNode*>(cl.bump);
    cl.bump += osize;
  }
  return got;
}

void TcmallocModelAllocator::central_release(std::size_t cls, FreeNode* head,
                                             std::size_t count) {
  CentralList& cl = central_[cls];
  sim::SpinGuard g(cl.lock);
  sim::probe(&cl, 64, true);
  FreeNode* tail = head;
  while (tail->next != nullptr) tail = tail->next;
  tail->next = cl.head;
  cl.head = head;
  cl.count += count;
}

void* TcmallocModelAllocator::allocate(std::size_t size) {
  if (size > kMaxSmall) {
    void* p = allocate_large(size);
    if (p != nullptr) note_alloc_bytes(usable_size(p));
    return p;
  }
  const std::size_t cls = class_index(size);
  ThreadCache& tc = *(*caches_)[sim::self_tid()];
  auto& pc = tc.cls[cls];
  sim::probe(&pc, 16, true);
  if (pc.head != nullptr) {
    FreeNode* n = pc.head;
    pc.head = n->next;
    --pc.count;
    tc.total_bytes -= class_size(cls);
    sim::tick(sim::Cost::kAllocFast);
    note_alloc_bytes(class_size(cls));
    return n;
  }
  // Miss: fetch an incrementally-growing batch from the central list.
  const std::size_t want = incremental_batch_ ? pc.next_batch : 8;
  if (incremental_batch_ && pc.next_batch < kMaxBatch) ++pc.next_batch;
  FreeNode* batch[kMaxBatch];
  const std::size_t got = central_fetch(cls, batch, want);
  if (TMX_UNLIKELY(got == 0)) return nullptr;  // heap exhausted
  // Reverse push: the cache hands out ascending (adjacent) addresses in the
  // order the central list carved them.
  for (std::size_t i = got; i-- > 1;) {
    batch[i]->next = pc.head;
    pc.head = batch[i];
  }
  pc.count += static_cast<std::uint32_t>(got - 1);
  tc.total_bytes += (got - 1) * class_size(cls);
  sim::tick(sim::Cost::kAllocSlow);
  note_alloc_bytes(class_size(cls));
  return batch[0];
}

void TcmallocModelAllocator::release_from_list(ThreadCache& tc,
                                               std::size_t cls,
                                               std::size_t keep) {
  auto& pc = tc.cls[cls];
  if (pc.count <= keep) return;
  const std::size_t drop = pc.count - keep;
  FreeNode* head = pc.head;
  FreeNode* tail = head;
  for (std::size_t i = 1; i < drop; ++i) tail = tail->next;
  pc.head = tail->next;
  tail->next = nullptr;
  pc.count -= static_cast<std::uint32_t>(drop);
  tc.total_bytes -= drop * class_size(cls);
  central_release(cls, head, drop);
}

void TcmallocModelAllocator::cache_gc(ThreadCache& tc) {
  // Move half of every list back to the central lists.
  for (std::size_t cls = 0; cls < num_classes(); ++cls) {
    release_from_list(tc, cls, tc.cls[cls].count / 2);
  }
}

void TcmallocModelAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  Span* sp = span_of(p);
  TMX_ASSERT_MSG(sp != nullptr, "free of an unmapped pointer");
  note_free_bytes(sp->cls == kLargeCls ? sp->npages * kPageSize
                                       : class_size(sp->cls));
  if (sp->cls == kLargeCls) {
    sim::SpinGuard g(pageheap_lock_);
    const std::size_t first = (sp->start - region_) / kPageSize;
    for (std::size_t i = 0; i < sp->npages; ++i) pagemap_[first + i] = nullptr;
    free_spans_.push_back(sp);
    sim::tick(sim::Cost::kAllocSlow);
    return;
  }
  // Small blocks land in the *current* thread's cache — TCMalloc does not
  // return them to the allocating thread (Section 3.4).
  const std::size_t cls = sp->cls;
  ThreadCache& tc = *(*caches_)[sim::self_tid()];
  auto& pc = tc.cls[cls];
  sim::probe(&pc, 16, true);
  auto* n = static_cast<FreeNode*>(p);
  n->next = pc.head;
  pc.head = n;
  ++pc.count;
  tc.total_bytes += class_size(cls);
  sim::tick(sim::Cost::kAllocFast);
  if (pc.count > kMaxListLen) release_from_list(tc, cls, kMaxListLen / 2);
  if (tc.total_bytes > kCacheByteCap) cache_gc(tc);
}

void* TcmallocModelAllocator::allocate_large(std::size_t size) {
  const std::size_t npages = (size + kPageSize - 1) / kPageSize;
  Span* sp;
  {
    sim::SpinGuard g(pageheap_lock_);
    sp = new_span(npages, kLargeCls);
  }
  sim::tick(sim::Cost::kAllocSlow);
  return sp != nullptr ? sp->start : nullptr;
}

std::size_t TcmallocModelAllocator::usable_size(const void* p) const {
  const Span* sp = span_of(p);
  return sp->cls == kLargeCls ? sp->npages * kPageSize : class_size(sp->cls);
}

std::uint32_t TcmallocModelAllocator::next_batch(int tid,
                                                 std::size_t cls) const {
  return (*caches_)[tid]->cls[cls].next_batch;
}

}  // namespace tmx::alloc
