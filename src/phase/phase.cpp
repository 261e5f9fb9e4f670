#include "phase/phase.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace tmx::phase {

// A phase: every slab and dedicated reservation whose blocks were born in
// one epoch. Retired phases linger until empty (or compacted empty), then
// the whole unit returns to the OS.
struct PhaseAllocator::Phase {
  std::uint64_t epoch = 0;
  bool retired = false;
  // Live (not yet freed) blocks across all slabs and large reservations.
  std::atomic<std::uint64_t> live_blocks{0};
  // Attachment pins: threads with a cached bump slab in this phase, plus
  // the compactor's target slabs. A pinned phase is never reclaimed.
  std::atomic<std::uint32_t> pins{0};
  Slab* slabs = nullptr;  // singly linked, newest first
  std::vector<Slab*> free_slabs;
  std::vector<LargeBlock*> large;
};

// Slab header, placed at the start of the slab's own backing pages.
struct PhaseAllocator::Slab {
  std::uint64_t magic = 0;
  Phase* phase = nullptr;
  Slab* next = nullptr;
  std::size_t bump = 0;  // offset of the next block header
  std::size_t end = 0;   // slab_bytes
  // Live blocks in this slab, biased +1 while attached to a thread's Tls
  // or pinned by the compactor.
  std::atomic<std::uint32_t> live{0};
  std::uint32_t node = 0;
  bool in_free_list = false;
};

struct PhaseAllocator::LargeBlock {
  void* base = nullptr;      // dedicated PageProvider reservation
  std::size_t length = 0;    // reservation length (header + usable)
  unsigned node = 0;
  bool freed = false;
  Phase* phase = nullptr;
};

PhaseAllocator::PhaseAllocator()
    : PhaseAllocator(sim::context().phase != nullptr ? *sim::context().phase
                                                     : PhaseConfig{}) {}

PhaseAllocator::PhaseAllocator(const PhaseConfig& cfg) : cfg_(cfg) {
  static_assert(sizeof(Slab) <= kSlabHeaderSize,
                "slab header must fit the reserved prefix");
  static_assert(sizeof(BlockHeader) == kHeaderSize,
                "block header layout is part of the placement contract");
  TMX_ASSERT(is_pow2(cfg_.slab_bytes));
  TMX_ASSERT(cfg_.slab_bytes >= 4096);
  traits_ = alloc::AllocatorTraits{};
  traits_.name = "phase";
  traits_.models = "phase-lifetime slabs (this work, built on the STM)";
  traits_.metadata = "16B header per block; 64B header per slab";
  // BlockHeader::usable sits at [p-8, p) and is bit-stable while the block
  // lives (kFreedBit goes into `owner`, not here): the guard's tag window.
  traits_.tag_offset = 8;
  traits_.tag_bytes = 8;
  traits_.min_block = kHeaderSize;
  traits_.fast_path = "thread-private bump pointer, no size classes";
  traits_.granularity = "one slab per (phase, thread); reclaim per phase";
  traits_.synchronization =
      "registry spinlock on slab refill and phase turnover; bump fast path "
      "and frees are lock-free";
  adopt_page_provider(&pages_);
  tls_ = new std::array<Padded<Tls>, kMaxThreads>();
}

PhaseAllocator::~PhaseAllocator() {
  // Backing pages are unmapped by the PageProvider's destructor; only the
  // host-heap bookkeeping needs tearing down.
  for (Phase* ph : phases_) {
    for (LargeBlock* lb : ph->large) delete lb;
    delete ph;
  }
  delete tls_;
}

// ---------------------------------------------------------------------------
// Allocation.

void* PhaseAllocator::allocate(std::size_t size) {
  const std::size_t usable =
      round_up(size < kHeaderSize ? kHeaderSize : size, 16);
  Tls& t = *(*tls_)[static_cast<std::size_t>(sim::self_tid())];
  const std::uint64_t epoch = t.tx_epoch != kNoTx
                                  ? t.tx_epoch
                                  : epoch_.load(std::memory_order_relaxed);
  if (TMX_UNLIKELY(usable + kHeaderSize > cfg_.slab_bytes / 2)) {
    return allocate_large(epoch, usable);
  }
  Slab* s = t.slab;
  if (TMX_LIKELY(s != nullptr && t.slab_epoch == epoch &&
                 s->bump + usable + kHeaderSize <= s->end)) {
    void* p = bump_from(s, usable);
    sim::tick(sim::Cost::kAllocFast);
    return p;
  }
  return allocate_slow(t, epoch, usable);
}

// Writes the header and block accounting in one yield-free span, then
// charges the cache model. Caller guarantees the slab has room.
void* PhaseAllocator::bump_from(Slab* s, std::size_t usable) {
  char* base = reinterpret_cast<char*>(s);
  BlockHeader* h = reinterpret_cast<BlockHeader*>(base + s->bump);
  h->owner = reinterpret_cast<std::uintptr_t>(s) | kSlabTag;
  h->usable = usable;
  s->bump += usable + kHeaderSize;
  s->live.fetch_add(1, std::memory_order_relaxed);
  s->phase->live_blocks.fetch_add(1, std::memory_order_relaxed);
  void* p = h + 1;
  note_alloc_bytes(usable);
  if (TMX_UNLIKELY(compaction_used_.load(std::memory_order_relaxed))) {
    scrub_forwarding(p, usable);
  }
  sim::probe(h, static_cast<unsigned>(kHeaderSize), true);
  return p;
}

void* PhaseAllocator::allocate_slow(Tls& t, std::uint64_t epoch,
                                    std::size_t usable) {
  Slab* s = nullptr;
  {
    sim::SpinGuard g(lock_);
    if (t.slab != nullptr) detach_locked(t);
    Phase* ph = phase_for_epoch_locked(epoch);
    // Prefer a recycled empty slab of this phase before growing it.
    if (!ph->free_slabs.empty()) {
      s = ph->free_slabs.back();
      ph->free_slabs.pop_back();
      s->in_free_list = false;
      s->bump = kSlabHeaderSize;
    } else {
      void* mem = pages_.reserve(cfg_.slab_bytes, cfg_.slab_bytes);
      if (TMX_UNLIKELY(mem == nullptr)) return nullptr;  // OOM propagates
      s = new (mem) Slab;
      s->magic = kSlabMagic;
      s->phase = ph;
      s->next = ph->slabs;
      s->bump = kSlabHeaderSize;
      s->end = cfg_.slab_bytes;
      const int node = pages_.reservation_node(mem);
      s->node = node >= 0 ? static_cast<std::uint32_t>(node) : 0;
      ph->slabs = s;
    }
    // Attach with a pin (the +1 live bias) so an empty attached slab is
    // never recycled under its owner.
    s->live.fetch_add(1, std::memory_order_relaxed);
    ph->pins.fetch_add(1, std::memory_order_relaxed);
    t.slab = s;
    t.slab_epoch = ph->epoch;
  }
  void* p = bump_from(s, usable);
  sim::tick(sim::Cost::kAllocSlow);
  return p;
}

void* PhaseAllocator::allocate_large(std::uint64_t epoch, std::size_t size) {
  const std::size_t length =
      round_up(size + kHeaderSize, alloc::PageProvider::kPageSize);
  const std::size_t usable = length - kHeaderSize;
  void* mem = nullptr;
  {
    sim::SpinGuard g(lock_);
    Phase* ph = phase_for_epoch_locked(epoch);
    mem = pages_.reserve(length, alloc::PageProvider::kPageSize);
    if (TMX_UNLIKELY(mem == nullptr)) return nullptr;
    auto* lb = new LargeBlock;
    TMX_ASSERT((reinterpret_cast<std::uintptr_t>(lb) & kTagMask) == 0);
    lb->base = mem;
    lb->length = length;
    const int node = pages_.reservation_node(mem);
    lb->node = node >= 0 ? static_cast<unsigned>(node) : 0;
    lb->phase = ph;
    ph->large.push_back(lb);
    auto* h = reinterpret_cast<BlockHeader*>(mem);
    h->owner = reinterpret_cast<std::uintptr_t>(lb) | kLargeTag;
    h->usable = usable;
    ph->live_blocks.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = static_cast<char*>(mem) + kHeaderSize;
  note_alloc_bytes(usable);
  if (TMX_UNLIKELY(compaction_used_.load(std::memory_order_relaxed))) {
    scrub_forwarding(p, usable);
  }
  sim::probe(mem, static_cast<unsigned>(kHeaderSize), true);
  sim::tick(sim::Cost::kAllocSlow);
  return p;
}

PhaseAllocator::Phase* PhaseAllocator::phase_for_epoch_locked(
    std::uint64_t epoch) {
  if (TMX_UNLIKELY(current_ == nullptr)) {
    current_ = new Phase;
    current_->epoch = epoch_.load(std::memory_order_relaxed);
    phases_.push_back(current_);
    phases_opened_.fetch_add(1, std::memory_order_relaxed);
  }
  if (TMX_LIKELY(epoch == current_->epoch)) return current_;
  for (Phase* ph : phases_) {
    if (ph->epoch == epoch) return ph;
  }
  // A begin-snapshot older than every surviving phase (possible only when
  // the transaction never allocated into its own epoch): use the current
  // phase rather than resurrecting a dead one.
  return current_;
}

// ---------------------------------------------------------------------------
// Deallocation.

void PhaseAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  if (TMX_UNLIKELY(compaction_used_.load(std::memory_order_relaxed))) {
    p = resolve_forwarding(p, /*consume=*/true);
  }
  BlockHeader* h = header_of(p);
  TMX_ASSERT_MSG((h->owner & kFreedBit) == 0,
                 "phase: double or invalid free");
  const std::size_t usable = h->usable;
  if (TMX_LIKELY((h->owner & kTagMask) == kSlabTag)) {
    Slab* s = reinterpret_cast<Slab*>(h->owner & ~kTagMask);
    TMX_ASSERT(s->magic == kSlabMagic);
    h->owner |= kFreedBit;
    s->phase->live_blocks.fetch_sub(1, std::memory_order_relaxed);
    note_free_bytes(usable);
    Tls& t = *(*tls_)[static_cast<std::size_t>(sim::self_tid())];
    const std::uint32_t before =
        s->live.fetch_sub(1, std::memory_order_acq_rel);
    if (t.slab == s) {
      // Owner freeing from its attached slab: reuse memory where we can.
      const std::size_t off =
          static_cast<std::size_t>(reinterpret_cast<char*>(h) -
                                   reinterpret_cast<char*>(s));
      const std::size_t step = usable + kHeaderSize;
      if (off + step == s->bump) {
        s->bump -= step;  // LIFO free: roll the bump pointer back
      } else if (before == 2) {
        s->bump = kSlabHeaderSize;  // only the pin remains: reset wholesale
      }
    } else if (TMX_UNLIKELY(before == 1)) {
      // Last block of an unattached slab died: park it for reuse.
      sim::SpinGuard g(lock_);
      recycle_locked(s);
    }
    sim::probe(h, static_cast<unsigned>(kHeaderSize), true);
    sim::tick(sim::Cost::kAllocFast);
    return;
  }
  TMX_ASSERT((h->owner & kTagMask) == kLargeTag);
  auto* lb = reinterpret_cast<LargeBlock*>(h->owner & ~kTagMask);
  h->owner |= kFreedBit;
  lb->freed = true;
  lb->phase->live_blocks.fetch_sub(1, std::memory_order_relaxed);
  note_free_bytes(usable);
  // The dedicated reservation stays mapped until the phase reclaims, so a
  // doomed transaction's zombie read of a stale pointer still lands on
  // mapped memory — same guarantee slab blocks get for free.
  sim::probe(h, static_cast<unsigned>(kHeaderSize), true);
  sim::tick(sim::Cost::kAllocFast);
}

std::size_t PhaseAllocator::usable_size(const void* p) const {
  if (p == nullptr) return 0;
  const void* q = p;
  if (TMX_UNLIKELY(compaction_used_.load(std::memory_order_relaxed))) {
    q = resolve_forwarding(const_cast<void*>(p), /*consume=*/false);
  }
  const BlockHeader* h = header_of(q);
  sim::probe(h, static_cast<unsigned>(kHeaderSize), false);
  return h->usable;
}

// Caller holds lock_. Drops the Tls pin; the slab is recycled if that pin
// was the last reference.
void PhaseAllocator::detach_locked(Tls& t) {
  Slab* s = t.slab;
  t.slab = nullptr;
  s->phase->pins.fetch_sub(1, std::memory_order_relaxed);
  if (s->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    recycle_locked(s);
  }
}

// Caller holds lock_. Parks a fully dead, unattached slab on its phase's
// free list; retired phases skip this (their slabs are about to munmap).
void PhaseAllocator::recycle_locked(Slab* s) {
  if (s->phase->retired || s->in_free_list ||
      s->live.load(std::memory_order_relaxed) != 0) {
    return;
  }
  s->bump = kSlabHeaderSize;
  s->in_free_list = true;
  s->phase->free_slabs.push_back(s);
}

// ---------------------------------------------------------------------------
// Epochs and transaction hints.

void PhaseAllocator::tx_begin_hint(int tid) {
  Tls& t = *(*tls_)[static_cast<std::size_t>(tid)];
  t.tx_epoch = epoch_.load(std::memory_order_relaxed);
  active_tx_.fetch_add(1, std::memory_order_relaxed);
}

void PhaseAllocator::tx_commit_hint(int tid) {
  Tls& t = *(*tls_)[static_cast<std::size_t>(tid)];
  t.tx_epoch = kNoTx;
  const std::uint64_t c = commits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (TMX_UNLIKELY(cfg_.commits_per_epoch != 0 &&
                   c % cfg_.commits_per_epoch == 0)) {
    advance_epoch();
  }
  if (active_tx_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      retired_count_.load(std::memory_order_relaxed) != 0 && sim::in_sim()) {
    // Commit boundary with no transaction in flight: the STM just proved
    // the quiescent point phase reclamation needs.
    reclaim_retired();
  }
}

void PhaseAllocator::tx_abort_hint(int tid) {
  Tls& t = *(*tls_)[static_cast<std::size_t>(tid)];
  t.tx_epoch = kNoTx;
  active_tx_.fetch_sub(1, std::memory_order_relaxed);
}

void PhaseAllocator::advance_epoch() {
  sim::SpinGuard g(lock_);
  const std::uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
  if (current_ != nullptr) {
    current_->retired = true;
    retired_count_.fetch_add(1, std::memory_order_relaxed);
  }
  auto* ph = new Phase;
  ph->epoch = next;
  phases_.push_back(ph);
  current_ = ph;
  phases_opened_.fetch_add(1, std::memory_order_relaxed);
  epoch_.store(next, std::memory_order_relaxed);
}

std::uint64_t PhaseAllocator::min_inflight_epoch() const {
  std::uint64_t m = kNoTx;
  for (const auto& pt : *tls_) {
    const std::uint64_t e = pt->tx_epoch;
    if (e < m) m = e;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Quiescence: reclamation and compaction.

void PhaseAllocator::on_quiescence(bool serial) {
  // Only the simulator's quiescent points are provable; under real threads
  // the allocator degrades to a no-reclaim slab allocator.
  if (!sim::in_sim()) return;
  quiesce(serial);
}

void PhaseAllocator::force_quiesce() { quiesce(true); }

void PhaseAllocator::quiesce(bool serial) {
  if (serial && cfg_.compact != PhaseConfig::Compact::kOff) compact();
  if (retired_count_.load(std::memory_order_relaxed) != 0) reclaim_retired();
}

void PhaseAllocator::reclaim_retired() {
  const std::uint64_t min_epoch = min_inflight_epoch();
  sim::SpinGuard g(lock_);
  for (auto it = phases_.begin(); it != phases_.end();) {
    Phase* ph = *it;
    if (!ph->retired || ph->epoch >= min_epoch ||
        ph->live_blocks.load(std::memory_order_relaxed) != 0 ||
        ph->pins.load(std::memory_order_relaxed) != 0) {
      ++it;
      continue;
    }
    // Whole-phase reclaim: every slab and every dedicated reservation of
    // the phase goes back to the OS as one unit. PageProvider keeps the
    // peak, so fragmentation (peak reserved vs live bytes) stays visible.
    Slab* s = ph->slabs;
    while (s != nullptr) {
      Slab* next = s->next;  // the header lives in the pages being released
      pages_.release(s);
      slabs_reclaimed_.fetch_add(1, std::memory_order_relaxed);
      s = next;
    }
    for (LargeBlock* lb : ph->large) {
      pages_.release(lb->base);
      delete lb;
    }
    retired_count_.fetch_sub(1, std::memory_order_relaxed);
    phases_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    delete ph;
    it = phases_.erase(it);
  }
}

void PhaseAllocator::compact() {
  // Detach every cached bump slab that lives in a retired phase so the
  // phase can drain; owners re-attach on their next allocation. The window
  // is quiescent and parked fibers sit outside mutation spans, so nulling
  // another thread's Tls pointer here is safe.
  const std::uint64_t min_epoch = min_inflight_epoch();
  std::vector<Phase*> victims;
  {
    sim::SpinGuard g(lock_);
    for (auto& pt : *tls_) {
      Tls& t = *pt;
      if (t.slab != nullptr && t.slab->phase->retired) detach_locked(t);
    }
    for (Phase* ph : phases_) {
      if (ph->retired && ph->epoch < min_epoch &&
          ph->live_blocks.load(std::memory_order_relaxed) != 0) {
        victims.push_back(ph);
      }
    }
  }
  if (victims.empty()) return;
  std::array<Slab*, alloc::PageProvider::kMaxNodes> targets{};
  for (Phase* ph : victims) compact_phase(ph, targets);
  {
    sim::SpinGuard g(lock_);
    for (Slab*& s : targets) {
      if (s == nullptr) continue;
      s->phase->pins.fetch_sub(1, std::memory_order_relaxed);
      if (s->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        recycle_locked(s);
      }
      s = nullptr;
    }
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
}

void PhaseAllocator::compact_phase(
    Phase* ph, std::array<Slab*, alloc::PageProvider::kMaxNodes>& targets) {
  Slab* s;
  {
    sim::SpinGuard g(lock_);
    s = ph->slabs;
  }
  for (; s != nullptr; s = s->next) {
    const std::size_t top = s->bump;  // snapshot; the walk never races it
    char* base = reinterpret_cast<char*>(s);
    std::size_t off = kSlabHeaderSize;
    while (off < top) {
      auto* h = reinterpret_cast<BlockHeader*>(base + off);
      const std::size_t step = h->usable + kHeaderSize;
      if ((h->owner & kFreedBit) == 0) relocate_block(ph, s, h, targets);
      off += step;
    }
  }
  std::vector<LargeBlock*> larges;
  {
    sim::SpinGuard g(lock_);
    larges = ph->large;
  }
  for (LargeBlock* lb : larges) {
    if (!lb->freed) relocate_large(ph, lb);
  }
}

// Caller holds lock_. Hands out (creating if needed) the compactor's
// pinned target slab in the current phase on `node`.
PhaseAllocator::Slab* PhaseAllocator::compaction_slab_locked(unsigned node) {
  Phase* tp = phase_for_epoch_locked(epoch_.load(std::memory_order_relaxed));
  Slab* s = nullptr;
  for (auto it = tp->free_slabs.begin(); it != tp->free_slabs.end(); ++it) {
    if ((*it)->node == node) {
      s = *it;
      tp->free_slabs.erase(it);
      s->in_free_list = false;
      s->bump = kSlabHeaderSize;
      break;
    }
  }
  if (s == nullptr) {
    void* mem = pages_.reserve_on_node(cfg_.slab_bytes, cfg_.slab_bytes, node);
    if (mem == nullptr) return nullptr;
    s = new (mem) Slab;
    s->magic = kSlabMagic;
    s->phase = tp;
    s->next = tp->slabs;
    s->bump = kSlabHeaderSize;
    s->end = cfg_.slab_bytes;
    s->node = node;
    tp->slabs = s;
  }
  s->live.fetch_add(1, std::memory_order_relaxed);  // compactor pin
  tp->pins.fetch_add(1, std::memory_order_relaxed);
  return s;
}

bool PhaseAllocator::relocate_block(
    Phase* ph, Slab* s, BlockHeader* h,
    std::array<Slab*, alloc::PageProvider::kMaxNodes>& targets) {
  void* old_p = h + 1;
  const std::size_t usable = h->usable;
  if (cfg_.compact == PhaseConfig::Compact::kChecked) {
    const auto relocatable = sim::check_hooks().relocatable;
    if (relocatable == nullptr || !relocatable(old_p)) {
      relocation_vetoes_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Model the read of the straggler (may yield; the block can still be
  // freed under us — rechecked below under fwd_lock_).
  probe_range(h, usable + kHeaderSize, false);
  // Relocation targets the straggler's home NUMA node: compaction must
  // never quietly turn local memory into remote memory.
  const unsigned node =
      std::min<unsigned>(s->node, alloc::PageProvider::kMaxNodes - 1);
  Slab*& ts = targets[node];
  const std::size_t step = usable + kHeaderSize;
  if (ts == nullptr || ts->bump + step > ts->end) {
    sim::SpinGuard g(lock_);
    if (ts != nullptr) {
      ts->phase->pins.fetch_sub(1, std::memory_order_relaxed);
      if (ts->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        recycle_locked(ts);
      }
      ts = nullptr;
    }
    ts = compaction_slab_locked(node);
    if (ts == nullptr) {
      // The fault plane (or the OS) refused the pages: degrade gracefully,
      // the straggler simply stays where it is.
      remap_refusals_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  void* new_p = nullptr;
  {
    sim::SpinGuard g(fwd_lock_);
    if ((h->owner & kFreedBit) != 0) return false;  // freed while probing
    auto* nh =
        reinterpret_cast<BlockHeader*>(reinterpret_cast<char*>(ts) + ts->bump);
    nh->owner = reinterpret_cast<std::uintptr_t>(ts) | kSlabTag;
    nh->usable = usable;
    new_p = nh + 1;
    std::memcpy(new_p, old_p, usable);
    ts->bump += step;
    ts->live.fetch_add(1, std::memory_order_relaxed);
    ts->phase->live_blocks.fetch_add(1, std::memory_order_relaxed);
    h->owner |= kFreedBit;
    ph->live_blocks.fetch_sub(1, std::memory_order_relaxed);
    s->live.fetch_sub(1, std::memory_order_relaxed);
    compaction_used_.store(true, std::memory_order_relaxed);
    fwd_[reinterpret_cast<std::uintptr_t>(old_p)] = {
        reinterpret_cast<std::uintptr_t>(new_p), usable};
    if (const auto on_relocated = sim::check_hooks().on_relocated) {
      on_relocated(old_p, new_p, usable);
    }
    if (listener_ != nullptr) listener_(old_p, new_p, usable, listener_ctx_);
    blocks_relocated_.fetch_add(1, std::memory_order_relaxed);
    bytes_relocated_.fetch_add(usable, std::memory_order_relaxed);
    // note_alloc/note_free deliberately not touched: the application's
    // live bytes did not change, only their address.
  }
  // The write side of the copy is real cache traffic, charged after the
  // mutation span so a mid-probe fiber switch sees a finished relocation.
  probe_range(header_of(new_p), usable + kHeaderSize, true);
  return true;
}

bool PhaseAllocator::relocate_large(Phase* ph, LargeBlock* lb) {
  char* old_base = static_cast<char*>(lb->base);
  void* old_p = old_base + kHeaderSize;
  const std::size_t usable = lb->length - kHeaderSize;
  if (cfg_.compact == PhaseConfig::Compact::kChecked) {
    const auto relocatable = sim::check_hooks().relocatable;
    if (relocatable == nullptr || !relocatable(old_p)) {
      relocation_vetoes_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  Phase* tp;
  {
    sim::SpinGuard g(lock_);
    tp = phase_for_epoch_locked(epoch_.load(std::memory_order_relaxed));
  }
  // Read side first: after remap the old range is unmapped.
  probe_range(old_base, lb->length, false);
  void* nb = pages_.remap(lb->base);
  if (nb == nullptr) {
    // Fault plane / OS refused the new reservation; the original mapping
    // is untouched and the straggler stays put.
    remap_refusals_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  void* new_p = static_cast<char*>(nb) + kHeaderSize;
  bool moved = false;
  {
    sim::SpinGuard g(fwd_lock_);
    lb->base = nb;
    auto* nh = reinterpret_cast<BlockHeader*>(nb);
    if (TMX_UNLIKELY(lb->freed)) {
      // A racing free landed mid-remap; its header write may have gone to
      // the old copy. The LargeBlock record is the truth: re-mark the
      // moved header and let phase reclaim release the new reservation.
      nh->owner |= kFreedBit;
    } else {
      nh->owner = reinterpret_cast<std::uintptr_t>(lb) | kLargeTag;
      nh->usable = usable;
      compaction_used_.store(true, std::memory_order_relaxed);
      fwd_[reinterpret_cast<std::uintptr_t>(old_p)] = {
          reinterpret_cast<std::uintptr_t>(new_p), usable};
      ph->live_blocks.fetch_sub(1, std::memory_order_relaxed);
      tp->live_blocks.fetch_add(1, std::memory_order_relaxed);
      if (const auto on_relocated = sim::check_hooks().on_relocated) {
        on_relocated(old_p, new_p, usable);
      }
      if (listener_ != nullptr) {
        listener_(old_p, new_p, usable, listener_ctx_);
      }
      blocks_relocated_.fetch_add(1, std::memory_order_relaxed);
      bytes_relocated_.fetch_add(usable, std::memory_order_relaxed);
      moved = true;
    }
  }
  if (moved) {
    // The record follows the block into the current phase, so the old
    // phase can reclaim without it and the new phase owns the pages.
    sim::SpinGuard g(lock_);
    ph->large.erase(std::find(ph->large.begin(), ph->large.end(), lb));
    tp->large.push_back(lb);
    lb->phase = tp;
  }
  if (moved) probe_range(nb, lb->length, true);
  return moved;
}

// ---------------------------------------------------------------------------
// Forwarding.

void* PhaseAllocator::resolve_forwarding(void* p, bool consume) const {
  sim::SpinGuard g(fwd_lock_);
  auto key = reinterpret_cast<std::uintptr_t>(p);
  auto it = fwd_.find(key);
  while (it != fwd_.end()) {  // chains collapse transitively
    key = it->second.first;
    if (consume) fwd_.erase(it);
    it = fwd_.find(key);
  }
  return reinterpret_cast<void*>(key);
}

// Drops forwarding entries whose source address now lies inside a freshly
// returned block — the old identity must not shadow the new one.
void PhaseAllocator::scrub_forwarding(void* p, std::size_t usable) {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const auto end = a + usable;
  sim::SpinGuard g(fwd_lock_);
  auto it = fwd_.lower_bound(a);
  while (it != fwd_.end() && it->first < end) it = fwd_.erase(it);
}

// Streams a relocation through the cache model in line-sized touches, with
// a flat-cost cap so huge blocks don't dominate the schedule.
void PhaseAllocator::probe_range(const void* base, std::size_t bytes,
                                 bool write) {
  const char* c = static_cast<const char*>(base);
  const std::size_t lines = (bytes + kCacheLineSize - 1) / kCacheLineSize;
  constexpr std::size_t kMaxLines = 512;
  const std::size_t probed = lines < kMaxLines ? lines : kMaxLines;
  for (std::size_t i = 0; i < probed; ++i) {
    sim::probe(c + i * kCacheLineSize, static_cast<unsigned>(kCacheLineSize),
               write);
  }
  if (lines > probed) {
    sim::tick(static_cast<std::uint64_t>(lines - probed) * 4);
  }
}

// ---------------------------------------------------------------------------
// Observation.

void PhaseAllocator::set_relocation_listener(RelocationListener fn,
                                             void* ctx) {
  listener_ = fn;
  listener_ctx_ = ctx;
}

PhaseStats PhaseAllocator::stats() const {
  PhaseStats st;
  st.epoch = epoch_.load(std::memory_order_relaxed);
  {
    sim::SpinGuard g(lock_);
    st.live_phases = phases_.size();
  }
  st.phases_opened = phases_opened_.load(std::memory_order_relaxed);
  st.phases_reclaimed = phases_reclaimed_.load(std::memory_order_relaxed);
  st.slabs_reclaimed = slabs_reclaimed_.load(std::memory_order_relaxed);
  st.compactions = compactions_.load(std::memory_order_relaxed);
  st.blocks_relocated = blocks_relocated_.load(std::memory_order_relaxed);
  st.bytes_relocated = bytes_relocated_.load(std::memory_order_relaxed);
  st.relocation_vetoes = relocation_vetoes_.load(std::memory_order_relaxed);
  st.remap_refusals = remap_refusals_.load(std::memory_order_relaxed);
  return st;
}

void publish_metrics(const PhaseStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "epoch", stats.epoch);
  reg.set_counter(prefix + "live_phases", stats.live_phases);
  reg.set_counter(prefix + "phases_opened", stats.phases_opened);
  reg.set_counter(prefix + "phases_reclaimed", stats.phases_reclaimed);
  reg.set_counter(prefix + "slabs_reclaimed", stats.slabs_reclaimed);
  reg.set_counter(prefix + "compactions", stats.compactions);
  reg.set_counter(prefix + "blocks_relocated", stats.blocks_relocated);
  reg.set_counter(prefix + "bytes_relocated", stats.bytes_relocated);
  reg.set_counter(prefix + "relocation_vetoes", stats.relocation_vetoes);
  reg.set_counter(prefix + "remap_refusals", stats.remap_refusals);
}

}  // namespace tmx::phase
