// GuardedAllocator implementation. Everything here is host-only work: no
// sim::tick/yield/probe, no model mutation beyond what the application
// itself did — except the deliberate, fault-plane-driven corruption
// injections, which are scribbled and (after detection) contained within a
// single guard operation so the model never observes them.

#include "guard/guard_alloc.hpp"

#include <cstring>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::guard {

namespace {

// Deterministic per-block canary pattern: a pure function of (payload
// address, byte index), so verification needs no stored copy and a fixed
// seed reproduces the same fill on the same arena offsets.
std::uint8_t canary_byte(std::uintptr_t addr, std::size_t i) {
  return static_cast<std::uint8_t>((addr >> ((i & 7) * 8)) ^
                                   (0xC3u + 0x1Du * i));
}

}  // namespace

GuardedAllocator::~GuardedAllocator() {
  // Final sweep: blocks the application never freed still get their canary
  // and tag verified (an injected overflow on a retained block must not
  // escape detection), and parked frees get their poison verified.
  audit();
  release_ready(/*all=*/true);
}

unsigned char* GuardedAllocator::tag_ptr(const void* p) const {
  return const_cast<unsigned char*>(
      static_cast<const unsigned char*>(p) - inner_->traits().tag_offset);
}

void GuardedAllocator::write_canary(void* p, const Record& r) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  auto* c = static_cast<unsigned char*>(p) + r.requested;
  for (std::size_t i = 0; i < r.canary_bytes; ++i) c[i] = canary_byte(addr, i);
}

void GuardedAllocator::restore_tag(void* p, const Record& r) {
  std::memcpy(tag_ptr(p), r.tag, r.tag_len);
}

bool GuardedAllocator::verify(const void* p, Record& r,
                              const char* where) const {
  bool bad = r.tag_reported || r.canary_reported;
  if (r.tag_len > 0 && !r.tag_reported &&
      std::memcmp(tag_ptr(p), r.tag, r.tag_len) != 0) {
    r.tag_reported = true;
    bad = true;
    Finding f;
    f.kind = FindingKind::kTagSmash;
    f.tid = sim::self_tid();
    f.cycle = sim::now_cycles();
    f.addr = reinterpret_cast<std::uintptr_t>(p);
    f.requested = r.requested;
    f.usable = r.usable;
    f.alloc_site = r.alloc_site != nullptr ? r.alloc_site : "?";
    f.site = detail::site_or(sim::self_tid(), where);
    f.detail = "boundary tag below the payload no longer matches its "
               "allocation-time checksum";
    detail::emit(std::move(f));
  }
  if (r.canary_bytes > 0 && !r.canary_reported) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const auto* c = static_cast<const unsigned char*>(p) + r.requested;
    for (std::size_t i = 0; i < r.canary_bytes; ++i) {
      if (c[i] != canary_byte(addr, i)) {
        r.canary_reported = true;
        bad = true;
        Finding f;
        f.kind = FindingKind::kCanarySmash;
        f.tid = sim::self_tid();
        f.cycle = sim::now_cycles();
        f.addr = addr;
        f.requested = r.requested;
        f.usable = r.usable;
        f.alloc_site = r.alloc_site != nullptr ? r.alloc_site : "?";
        f.site = detail::site_or(sim::self_tid(), where);
        f.detail = "tail canary overwritten: write past the requested size";
        detail::emit(std::move(f));
        break;
      }
    }
  }
  return bad;
}

void* GuardedAllocator::allocate(std::size_t size) {
  void* p = inner_->allocate(size);
  if (p == nullptr) return nullptr;
  Record r;
  r.requested = size;
  r.usable = inner_->usable_size(p);
  r.alloc_site = detail::site_or(sim::self_tid(), nullptr);
  const std::size_t slack = r.usable > size ? r.usable - size : 0;
  r.canary_bytes = static_cast<std::uint8_t>(slack < 16 ? slack : 16);
  const std::size_t tb = inner_->traits().tag_bytes;
  r.tag_len = static_cast<std::uint8_t>(tb < 16 ? tb : 16);
  if (r.tag_len > 0) std::memcpy(r.tag, tag_ptr(p), r.tag_len);
  if (r.canary_bytes > 0) write_canary(p, r);
  if (GuardStats* st = detail::stats_mut()) {
    ++st->blocks_guarded;
    if (r.canary_bytes > 0) ++st->canaries_placed;
  }
  // Off-by-N overflow injection: only asked when a canary exists, so every
  // injection is detectable — flip the first canary byte, exactly what a
  // write of requested+1 bytes would clobber.
  if (TMX_UNLIKELY(fault::enabled()) && r.canary_bytes > 0 &&
      fault::should_corrupt_overflow()) {
    static_cast<unsigned char*>(p)[size] ^= 0xFFu;
  }
  table_.emplace(p, r);
  return p;
}

void GuardedAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  auto it = table_.find(p);
  if (it == table_.end()) {
    // Double free (still parked in quarantine) or a pointer the guard never
    // saw. Either way: swallow, never hand the model a bad pointer.
    bool parked = false;
    for (const QEntry& e : quarantine_) {
      if (e.p == p) {
        parked = true;
        break;
      }
    }
    Finding f;
    f.kind = parked ? FindingKind::kDoubleFree : FindingKind::kInvalidFree;
    f.tid = sim::self_tid();
    f.cycle = sim::now_cycles();
    f.addr = reinterpret_cast<std::uintptr_t>(p);
    f.site = detail::site_or(sim::self_tid(), "free");
    f.detail = parked ? "free of a block already freed and quarantined"
                      : "free of a pointer never seen allocated";
    detail::emit(std::move(f));
    return;
  }
  Record& r = it->second;
  // Boundary-tag scribble injection: only asked when the model keeps an
  // in-band tag. The scribble lives entirely within this call — detected,
  // then contained below before any other fiber can run.
  if (TMX_UNLIKELY(fault::enabled()) && r.tag_len > 0 &&
      fault::should_corrupt_tag()) {
    unsigned char* t = tag_ptr(p);
    for (std::size_t i = 0; i < r.tag_len; ++i) t[i] ^= 0xA5u;
  }
  const bool bad = verify(p, r, "free");
  if (GuardStats* st = detail::stats_mut()) ++st->frees_verified;
  if (bad) {
    // Containment: restore the checksummed tag bytes so heap walks by the
    // model (neighbor coalescing) never read scribbled metadata, then leak
    // the block — a corrupted block is never handed back to the model.
    if (r.tag_len > 0) restore_tag(p, r);
    table_.erase(it);
    if (GuardStats* st = detail::stats_mut()) ++st->leaked;
    return;
  }
  const std::uint64_t qe = config().quarantine_epochs;
  if (qe == 0) {
    // Detect-only: forward immediately. Placement-neutral — this is the
    // mode under the golden-constant contract.
    table_.erase(it);
    inner_->deallocate(p);
    return;
  }
  // Quarantine: poison the payload and park the block until its epoch ages
  // out at a proven quiescent point.
  std::memset(p, config().poison, r.usable);
  // Early-reuse injection: a write into quarantined memory, as a stale
  // pointer would do. Only asked when quarantine is armed (qe >= 1), so the
  // release-time poison verification is guaranteed to see it.
  if (TMX_UNLIKELY(fault::enabled()) && fault::should_corrupt_reuse()) {
    static_cast<unsigned char*>(p)[r.usable / 2] ^= 0xFFu;
  }
  QEntry e;
  e.p = p;
  e.usable = r.usable;
  e.epoch = epoch_;
  e.alloc_site = r.alloc_site;
  e.free_site = detail::site_or(sim::self_tid(), nullptr);
  e.tag_len = r.tag_len;
  std::memcpy(e.tag, r.tag, sizeof(e.tag));
  quarantine_.push_back(e);
  quarantine_bytes_ += r.usable;
  if (GuardStats* st = detail::stats_mut()) {
    ++st->quarantined;
    st->quarantined_bytes += r.usable;
  }
  table_.erase(it);
}

std::size_t GuardedAllocator::usable_size(const void* p) const {
  auto it = table_.find(p);
  if (it == table_.end()) return inner_->usable_size(p);
  verify(p, it->second, "usable_size");
  return it->second.requested;
}

void GuardedAllocator::release_ready(bool all) {
  // FIFO and epochs are monotonic, so the first too-young entry ends the
  // scan.
  while (!quarantine_.empty()) {
    QEntry& e = quarantine_.front();
    if (!all && e.epoch + config().quarantine_epochs > epoch_) break;
    const std::uint8_t poison = config().poison;
    auto* b = static_cast<const unsigned char*>(e.p);
    // The reuse injection flips one byte, but scan the whole payload: a
    // genuine stale write may land anywhere.
    bool dirty = false;
    for (std::size_t i = 0; i < e.usable; ++i) {
      if (b[i] != poison) {
        dirty = true;
        break;
      }
    }
    if (dirty) {
      Finding f;
      f.kind = FindingKind::kPoisonWrite;
      f.tid = sim::self_tid();
      f.cycle = sim::now_cycles();
      f.addr = reinterpret_cast<std::uintptr_t>(e.p);
      f.usable = e.usable;
      f.alloc_site = e.alloc_site != nullptr ? e.alloc_site : "?";
      f.site = e.free_site != nullptr ? e.free_site : "quarantine";
      f.detail = "quarantined memory written before release: early reuse "
                 "or use-after-free store";
      detail::emit(std::move(f));
    }
    bool leak = false;
    if (e.tag_len > 0 &&
        std::memcmp(tag_ptr(e.p), e.tag, e.tag_len) != 0) {
      // The tag was intact at free time, so this is damage done while
      // parked. Contain and leak, same as at free.
      Finding f;
      f.kind = FindingKind::kTagSmash;
      f.tid = sim::self_tid();
      f.cycle = sim::now_cycles();
      f.addr = reinterpret_cast<std::uintptr_t>(e.p);
      f.usable = e.usable;
      f.alloc_site = e.alloc_site != nullptr ? e.alloc_site : "?";
      f.site = "quarantine";
      f.detail = "boundary tag of a quarantined block mutated while parked";
      detail::emit(std::move(f));
      std::memcpy(tag_ptr(e.p), e.tag, e.tag_len);
      leak = true;
    }
    quarantine_bytes_ -= e.usable;
    if (GuardStats* st = detail::stats_mut()) {
      if (leak) {
        ++st->leaked;
      } else {
        ++st->released;
      }
    }
    void* p = e.p;
    quarantine_.pop_front();
    if (!leak) inner_->deallocate(p);
  }
}

void GuardedAllocator::audit() {
  GuardStats* st = detail::stats_mut();
  if (st != nullptr) ++st->audits;
  for (auto& [p, r] : table_) {
    const bool was_bad = r.tag_reported;
    verify(p, r, "audit");
    // Contain a freshly found tag smash right away: the block stays live
    // (the application still owns it), but heap walks must see the
    // checksummed bytes. The record keeps the reported flag, so the
    // eventual free still leaks the block instead of forwarding it.
    if (r.tag_reported && !was_bad) restore_tag(const_cast<void*>(p), r);
    if (st != nullptr) ++st->audit_blocks;
  }
}

void GuardedAllocator::tx_begin_hint(int tid) {
  ++active_tx_;
  inner_->tx_begin_hint(tid);
}

void GuardedAllocator::tx_abort_hint(int tid) {
  if (active_tx_ > 0) --active_tx_;
  inner_->tx_abort_hint(tid);
}

void GuardedAllocator::tx_commit_hint(int tid) {
  if (active_tx_ > 0) --active_tx_;
  ++commits_since_epoch_;
  if (active_tx_ == 0) {
    // Zero-inflight commit boundary: no speculating reader exists, so this
    // is a safe release point for aged-out quarantine entries.
    if (commits_since_epoch_ >= config().commits_per_epoch) {
      commits_since_epoch_ = 0;
      ++epoch_;
      if (GuardStats* st = detail::stats_mut()) ++st->epochs;
    }
    if (!quarantine_.empty()) release_ready(/*all=*/false);
  }
  inner_->tx_commit_hint(tid);
}

void GuardedAllocator::on_quiescence(bool serial) {
  // A proven quiescent point (maintenance window or the serial-irrevocable
  // token): advance the epoch, drain the quarantine fully — the no-
  // unbounded-RSS contract — and walk the heap, all before the inner
  // allocator (phase) sees the quiescence hint, so phase reclaim observes
  // the released frees in the same window.
  ++epoch_;
  commits_since_epoch_ = 0;
  if (GuardStats* st = detail::stats_mut()) ++st->epochs;
  release_ready(/*all=*/true);
  audit();
  inner_->on_quiescence(serial);
}

}  // namespace tmx::guard
