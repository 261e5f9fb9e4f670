// The transactional lifetime checker and the public dynamic hooks.
//
// Block identity comes from CheckedAllocator (check_alloc.hpp), the single
// chokepoint every allocation and deallocation crosses when the harness
// runs with --check: on_block_alloc registers a live block (and scrubs any
// tombstones and stale race-shadow covering the recycled range — recycled
// memory must not inherit its previous tenant's history), on_block_free
// moves it to the tombstone map. The STM-level hooks layer transactional
// meaning on top: which transaction allocated a block (and whether a
// committed store ever published a pointer to it), which frees are deferred
// and must not count until the commit makes them real, and whether an
// access to freed memory came from a doomed (zombie) transaction — benign
// by construction in a lazy-validation STM — or from code whose snapshot is
// still valid, which is a genuine use-after-free.

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/check_internal.hpp"
#include "sim/engine.hpp"

namespace tmx::check {

namespace detail {

Block* find_live(State& s, std::uintptr_t addr, std::uintptr_t* start) {
  auto it = s.live.upper_bound(addr);
  if (it == s.live.begin()) return nullptr;
  --it;
  if (addr >= it->first && addr < it->first + it->second.size) {
    if (start != nullptr) *start = it->first;
    return &it->second;
  }
  return nullptr;
}

const Tombstone* find_tomb(const State& s, std::uintptr_t addr,
                           std::uintptr_t* start) {
  auto it = s.tombs.upper_bound(addr);
  if (it == s.tombs.begin()) return nullptr;
  --it;
  if (addr >= it->first && addr < it->first + it->second.size) {
    if (start != nullptr) *start = it->first;
    return &it->second;
  }
  return nullptr;
}

namespace {

Report base_report(ReportKind kind, int tid, std::uintptr_t addr,
                   const char* site) {
  Report r;
  r.kind = kind;
  r.tid = tid;
  r.cycle = sim::now_cycles();
  r.addr = addr;
  r.stripe = stripe_of(addr);
  r.site = site_or(tid, site);
  return r;
}

void report_freed_touch(State& s, ReportKind kind, int tid,
                        std::uintptr_t addr, bool write, const char* site) {
  std::uintptr_t start = 0;
  const Tombstone* t = find_tomb(s, addr, &start);
  Report r = base_report(kind, tid, addr, site);
  if (t != nullptr) {
    r.other_tid = t->free_tid;
    r.other_cycle = t->free_cycle;
    r.other_site = t->free_site != nullptr ? t->free_site : "?";
    r.detail = std::string(write ? "write to" : "read of") +
               " freed block (allocated at " +
               (t->alloc_site != nullptr ? t->alloc_site : "?") + ")";
  } else {
    r.detail = write ? "write to freed memory" : "read of freed memory";
  }
  emit(std::move(r));
}

bool range_touches_tomb(const State& s, std::uintptr_t addr,
                        std::size_t bytes) {
  // A block containing the first byte covers the common case; a range
  // straddling into a freed block is caught by also probing the last byte.
  if (find_tomb(s, addr, nullptr) != nullptr) return true;
  return bytes > 1 && find_tomb(s, addr + bytes - 1, nullptr) != nullptr;
}

}  // namespace
}  // namespace detail

using detail::Block;
using detail::PendingFree;
using detail::State;
using detail::Tombstone;

// ---------------------------------------------------------------------------
// Naked (non-transactional) hooks
// ---------------------------------------------------------------------------

void naked_access(const void* addr, std::size_t bytes, bool write,
                  const char* site) {
  State* s = detail::state();
  if (s == nullptr) return;
  const int tid = sim::self_tid();
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  if (s->cfg.lifetime && s->alloc_tracking &&
      detail::range_touches_tomb(*s, a, bytes)) {
    // Naked code has no snapshot to be doomed under: always hard.
    detail::report_freed_touch(*s, ReportKind::kUseAfterFree, tid, a, write,
                               site);
  }
  detail::race_access(tid, a, bytes, write, /*is_tx=*/false, site);
}

void on_naked_malloc(void* p, std::size_t size, const char* site) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime || p == nullptr) return;
  static_cast<void>(size);
  // The block was just registered by CheckedAllocator with whatever scoped
  // site was active; a direct call-site label is more precise.
  if (Block* b = detail::find_live(*s, reinterpret_cast<std::uintptr_t>(p),
                                   nullptr)) {
    b->site = site;
  }
}

void on_naked_free(void* p, const char* site) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime || p == nullptr) return;
  // Pre-attribute the upcoming on_block_free to this call site.
  s->pending_free[reinterpret_cast<std::uintptr_t>(p)] =
      PendingFree{sim::self_tid(), site, sim::now_cycles()};
}

// ---------------------------------------------------------------------------
// STM hooks
// ---------------------------------------------------------------------------

void on_tx_begin(int tid) {
  // A transaction's begin acquire-loads the global version clock the
  // commits fetch_add on: the happens-before edge is real.
  detail::race_acquire_global(tid);
}

void on_tx_extend(int tid) {
  // Snapshot extension re-reads the clock: same acquire edge as begin.
  detail::race_acquire_global(tid);
}

bool on_tx_access(int tid, const void* addr, std::size_t bytes, bool write,
                  bool write_in_place) {
  State* s = detail::state();
  if (s == nullptr) return false;
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  // Reads sample memory now; buffered writes touch memory only at commit
  // (on_tx_commit records them then), but write-through mutates in place.
  if (!write || write_in_place) {
    detail::race_access(tid, a, bytes, write, /*is_tx=*/true, nullptr);
  }
  return s->cfg.lifetime && s->alloc_tracking &&
         detail::range_touches_tomb(*s, a, bytes);
}

void on_tx_freed_access(int tid, const void* addr, bool write, bool doomed) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime) return;
  detail::report_freed_touch(
      *s, doomed ? ReportKind::kZombieRead : ReportKind::kUseAfterFree, tid,
      reinterpret_cast<std::uintptr_t>(addr), write, nullptr);
}

void on_tx_malloc(int tid, void* p, std::size_t size) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime || p == nullptr) return;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  Block* b = detail::find_live(*s, a, nullptr);
  if (b == nullptr) {
    // Allocator not routed through CheckedAllocator (or the tx object
    // cache short-circuited it): register the block here so the leak
    // analysis still works, with the requested size as a lower bound.
    b = &s->live[a];
    b->size = size;
    b->alloc_tid = tid;
    b->alloc_cycle = sim::now_cycles();
    s->alloc_tracking = true;
  }
  b->site = detail::site_or(tid, b->site);
  b->owner_tx = tid;
  b->unpublished = true;
  b->escape_published = false;
  b->tx_origin = true;
}

void on_tx_free(int tid, void* p) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime || p == nullptr) return;
  auto a = reinterpret_cast<std::uintptr_t>(p);
  // A compacted block may be freed through its pre-relocation pointer:
  // analyze (and attribute) against where the block lives now. The entry
  // is consumed later, when the commit-time deallocation goes through
  // on_block_free with the same stale pointer.
  {
    auto rit = s->relocations.find(a);
    while (rit != s->relocations.end()) {
      a = rit->second.first;
      rit = s->relocations.find(a);
    }
  }
  auto& pending = s->tx_pending[static_cast<std::size_t>(tid)];
  if (std::find(pending.begin(), pending.end(), a) != pending.end()) {
    Report r = detail::base_report(ReportKind::kDoubleFree, tid, a, nullptr);
    r.detail = "block freed twice within one transaction";
    detail::emit(std::move(r));
    return;
  }
  if (s->alloc_tracking && detail::find_tomb(*s, a, nullptr) != nullptr) {
    detail::report_freed_touch(*s, ReportKind::kDoubleFree, tid, a,
                               /*write=*/true, nullptr);
    return;
  }
  std::uintptr_t start = 0;
  Block* b = s->alloc_tracking ? detail::find_live(*s, a, &start) : nullptr;
  if (b != nullptr && b->unpublished && b->owner_tx != -1 &&
      b->owner_tx != tid) {
    Report r =
        detail::base_report(ReportKind::kFreeUnpublished, tid, a, nullptr);
    r.other_tid = b->owner_tx;
    r.other_cycle = b->alloc_cycle;
    r.other_site = b->site != nullptr ? b->site : "?";
    r.detail = "free of another transaction's unpublished allocation";
    detail::emit(std::move(r));
  } else if (s->alloc_tracking && b == nullptr) {
    Report r = detail::base_report(ReportKind::kInvalidFree, tid, a, nullptr);
    r.detail = "transactional free of a pointer never seen allocated";
    detail::emit(std::move(r));
  }
  pending.push_back(a);
  // Deferred-free attribution: the deallocation happens at commit, deep in
  // release_deferred_frees; report it against this user-level point.
  s->pending_free[a] =
      PendingFree{tid, detail::site_or(tid, "Tx::free"), sim::now_cycles()};
}

void on_tx_commit(int tid, const CommittedWrite* writes, std::size_t nwrites,
                  const std::pair<void*, std::size_t>* allocs,
                  std::size_t nallocs, void* const* frees, std::size_t nfrees,
                  bool bumped_clock) {
  State* s = detail::state();
  if (s == nullptr) return;
  // Race prong: the committed stores touch memory now, under the stripe
  // locks, stamped before the release so later acquirers order after them.
  if (s->cfg.race) {
    for (std::size_t i = 0; i < nwrites; ++i) {
      detail::race_access(tid, writes[i].word, 8, /*write=*/true,
                          /*is_tx=*/true, nullptr);
    }
    if (bumped_clock) detail::race_release_global(tid);
  }
  if (!s->cfg.lifetime) return;

  // Publication fixpoint: a transactional allocation escapes iff some
  // committed word holds a pointer into it and that word itself lies
  // outside every still-unpublished allocation of this transaction
  // (A stored only inside unpublished B is published exactly when B is).
  auto& pending = s->tx_pending[static_cast<std::size_t>(tid)];
  const auto pending_freed = [&](std::uintptr_t a) {
    return std::find(pending.begin(), pending.end(), a) != pending.end();
  };
  struct Cand {
    std::uintptr_t start;
    Block* block;
    bool published;
  };
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < nallocs; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(allocs[i].first);
    Block* b = detail::find_live(*s, a, nullptr);
    if (b == nullptr || b->owner_tx != tid) continue;
    cands.push_back(Cand{a, b, b->escape_published});
  }
  const auto inside_unpublished = [&](std::uintptr_t a) {
    for (const Cand& c : cands) {
      if (!c.published && a >= c.start && a < c.start + c.block->size) {
        return true;
      }
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < nwrites; ++i) {
      if (inside_unpublished(writes[i].word)) continue;
      const std::uintptr_t v = writes[i].value;
      for (Cand& c : cands) {
        if (!c.published && v >= c.start &&
            v < c.start + c.block->size) {
          c.published = true;
          changed = true;
        }
      }
    }
  }
  for (Cand& c : cands) {
    if (!c.published && !pending_freed(c.start)) {
      // Suspect, not verdict: the committing thread may have privatized the
      // block through a local and will free it later — that free acquits it
      // (see State::leak_suspects). Unfreed suspects become reports when
      // findings are read.
      Report r = detail::base_report(ReportKind::kTxLeak, tid, c.start,
                                     c.block->site);
      r.other_tid = c.block->alloc_tid;
      r.other_cycle = c.block->alloc_cycle;
      r.detail = "transactional allocation neither freed nor published by "
                 "any committed store";
      s->leak_suspects[c.start] = std::move(r);
    }
    // Committed: whatever its fate, the block is no longer tx-private. The
    // publication verdict persists — tmx::phase compaction may only move
    // blocks that were never seen escaping.
    c.block->owner_tx = -1;
    c.block->unpublished = false;
    c.block->ever_published = c.block->ever_published || c.published;
  }
  // Publication closure beyond this transaction's own allocations: any
  // committed word holding a pointer into ANY live block publishes that
  // block (a later transaction can publish an old privatized allocation).
  // Conservative by design: a false "published" only costs a relocation.
  for (std::size_t i = 0; i < nwrites; ++i) {
    if (Block* tgt = detail::find_live(*s, writes[i].value, nullptr)) {
      tgt->ever_published = true;
    }
  }
  static_cast<void>(frees);
  static_cast<void>(nfrees);
  // The deferred frees execute right after this hook; their attribution
  // entries in pending_free are consumed by on_block_free.
  pending.clear();
}

void on_tx_abort(int tid, const std::pair<void*, std::size_t>* allocs,
                 std::size_t nallocs) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime) return;
  // Deferred frees never happen on abort: drop their attributions.
  auto& pending = s->tx_pending[static_cast<std::size_t>(tid)];
  for (std::uintptr_t a : pending) s->pending_free.erase(a);
  pending.clear();
  // Rollback already returned the transaction's allocations through the
  // allocator (tombstoning them); clear ownership on any survivor (the tx
  // object cache can retain blocks without a deallocate call).
  for (std::size_t i = 0; i < nallocs; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(allocs[i].first);
    if (Block* b = detail::find_live(*s, a, nullptr)) {
      if (b->owner_tx == tid) {
        b->owner_tx = -1;
        b->unpublished = false;
      }
    }
  }
}

void publish(const void* p) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime || p == nullptr) return;
  if (Block* b = detail::find_live(*s, reinterpret_cast<std::uintptr_t>(p),
                                   nullptr)) {
    b->escape_published = true;
  }
}

// ---------------------------------------------------------------------------
// Allocator chokepoint hooks
// ---------------------------------------------------------------------------

void on_block_alloc(void* p, std::size_t usable) {
  State* s = detail::state();
  if (s == nullptr || p == nullptr) return;
  s->alloc_tracking = true;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t end = a + (usable > 0 ? usable : 1);
  // Recycled memory must not inherit its previous tenant's history: drop
  // tombstones and race-shadow records covering the new block's range.
  {
    auto it = s->tombs.upper_bound(a);
    if (it != s->tombs.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size > a) it = prev;
    }
    while (it != s->tombs.end() && it->first < end) it = s->tombs.erase(it);
  }
  if (s->cfg.race) {
    auto it = s->shadow.lower_bound(round_down(a, 8));
    while (it != s->shadow.end() && it->first < end) it = s->shadow.erase(it);
  }
  {
    // Forwarding entries whose source lies in the recycled range are dead:
    // the old identity must not redirect frees of the new tenant.
    auto it = s->relocations.lower_bound(a);
    while (it != s->relocations.end() && it->first < end) {
      it = s->relocations.erase(it);
    }
  }
  Block b;
  b.size = usable > 0 ? usable : 1;
  b.site = detail::site_or(sim::self_tid(), nullptr);
  b.alloc_tid = sim::self_tid();
  b.alloc_cycle = sim::now_cycles();
  s->live[a] = b;
}

bool on_block_free(void* p) {
  State* s = detail::state();
  if (s == nullptr || p == nullptr) return true;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  auto it = s->live.find(a);
  if (it != s->live.end()) {
    s->leak_suspects.erase(a);  // privatized-then-freed: not a leak
    Tombstone t;
    t.size = it->second.size;
    t.alloc_site = it->second.site;
    auto pf = s->pending_free.find(a);
    if (pf != s->pending_free.end()) {
      t.free_site = pf->second.site;
      t.free_tid = pf->second.tid;
      t.free_cycle = pf->second.cycle;
      s->pending_free.erase(pf);
    } else {
      t.free_site = detail::site_or(sim::self_tid(), nullptr);
      t.free_tid = sim::self_tid();
      t.free_cycle = sim::now_cycles();
    }
    s->tombs[a] = t;
    s->live.erase(it);
    return true;
  }
  // Not live at this address: it may have been moved by phase compaction.
  // Redirect the free to the block's current home (consuming the entry —
  // the address pair is dead once the block is) and keep any pending
  // attribution with it.
  {
    auto rit = s->relocations.find(a);
    if (rit != s->relocations.end()) {
      void* np = reinterpret_cast<void*>(rit->second.first);
      s->relocations.erase(rit);
      auto pf = s->pending_free.find(a);
      if (pf != s->pending_free.end()) {
        s->pending_free[reinterpret_cast<std::uintptr_t>(np)] = pf->second;
        s->pending_free.erase(pf);
      }
      return on_block_free(np);  // chains resolve by recursion
    }
  }
  if (!s->cfg.lifetime) return true;  // race-only mode: stay out of the way
  s->pending_free.erase(a);
  std::uintptr_t start = 0;
  if (const Tombstone* t = detail::find_tomb(*s, a, &start)) {
    Report r = detail::base_report(ReportKind::kDoubleFree, sim::self_tid(),
                                   a, nullptr);
    r.other_tid = t->free_tid;
    r.other_cycle = t->free_cycle;
    r.other_site = t->free_site != nullptr ? t->free_site : "?";
    r.detail = std::string("block already freed (allocated at ") +
               (t->alloc_site != nullptr ? t->alloc_site : "?") + ")";
    detail::emit(std::move(r));
    return false;  // forwarding would corrupt the real heap
  }
  Report r = detail::base_report(ReportKind::kInvalidFree, sim::self_tid(), a,
                                 nullptr);
  r.detail = "free of a pointer never seen allocated";
  detail::emit(std::move(r));
  return false;
}

namespace detail {

void flush_leak_suspects(State& s) {
  for (auto& [a, r] : s.leak_suspects) {
    static_cast<void>(a);
    emit(std::move(r));
  }
  s.leak_suspects.clear();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Phase-compaction bridge (tmx::phase)
// ---------------------------------------------------------------------------

bool relocatable(const void* payload) {
  State* s = detail::state();
  if (s == nullptr || !s->cfg.lifetime || !s->alloc_tracking) return false;
  const auto a = reinterpret_cast<std::uintptr_t>(payload);
  // Exact-start lookup: compaction moves whole blocks, never interiors.
  auto it = s->live.find(a);
  if (it == s->live.end()) return false;
  const detail::Block& b = it->second;
  // Provably private: born in a transaction, its owner committed, and no
  // committed store (of any transaction, ever) placed a pointer to it into
  // memory — nor did check::publish() flag a side-channel escape. What this
  // cannot see: pointers passed around outside memory the STM writes
  // (registers, naked stores) — that residual risk is exactly why
  // --phase-compact=checked is the cautious mode and `all` exists only for
  // drivers that re-resolve addresses.
  return b.tx_origin && b.owner_tx == -1 && !b.ever_published &&
         !b.escape_published;
}

void on_block_relocate(void* from, void* to, std::size_t usable) {
  State* s = detail::state();
  if (s == nullptr || from == nullptr || to == nullptr) return;
  const auto a = reinterpret_cast<std::uintptr_t>(from);
  const auto na = reinterpret_cast<std::uintptr_t>(to);
  const auto nend = na + (usable > 0 ? usable : 1);
  // The target range is recycled memory: scrub inherited history exactly
  // like on_block_alloc does.
  {
    auto it = s->tombs.upper_bound(na);
    if (it != s->tombs.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size > na) it = prev;
    }
    while (it != s->tombs.end() && it->first < nend) {
      it = s->tombs.erase(it);
    }
  }
  if (s->cfg.race) {
    auto it = s->shadow.lower_bound(round_down(na, 8));
    while (it != s->shadow.end() && it->first < nend) {
      it = s->shadow.erase(it);
    }
  }
  {
    auto it = s->relocations.lower_bound(na);
    while (it != s->relocations.end() && it->first < nend) {
      it = s->relocations.erase(it);
    }
  }
  // Move the live entry, then tombstone the source range so a stale
  // pointer dereference surfaces as a use-after-free against this move.
  detail::Block b;
  auto lit = s->live.find(a);
  if (lit != s->live.end()) {
    b = lit->second;
    s->live.erase(lit);
  } else {
    b.size = usable > 0 ? usable : 1;
    b.alloc_tid = sim::self_tid();
    b.alloc_cycle = sim::now_cycles();
  }
  detail::Tombstone t;
  t.size = b.size;
  t.alloc_site = b.site;
  t.free_site = "phase-compaction";
  t.free_tid = sim::self_tid();
  t.free_cycle = sim::now_cycles();
  s->tombs[a] = t;
  s->live[na] = b;
  s->relocations[a] = {na, b.size};
  // Auxiliary attributions follow the block to its new address.
  auto ls = s->leak_suspects.find(a);
  if (ls != s->leak_suspects.end()) {
    Report r = std::move(ls->second);
    s->leak_suspects.erase(ls);
    r.addr = na;
    s->leak_suspects[na] = std::move(r);
  }
  auto pf = s->pending_free.find(a);
  if (pf != s->pending_free.end()) {
    s->pending_free[na] = pf->second;
    s->pending_free.erase(pf);
  }
}

}  // namespace tmx::check
