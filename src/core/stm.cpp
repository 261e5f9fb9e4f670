#include "core/stm.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "prof/prof.hpp"

namespace tmx::stm {

using detail::ReadEntry;
using detail::TxObjectCache;
using detail::VLock;
using detail::WriteEntry;

namespace {

constexpr std::uint64_t kLockBit = 1;

bool is_locked(std::uint64_t v) { return (v & kLockBit) != 0; }
Tx* owner_of(std::uint64_t v) {
  return reinterpret_cast<Tx*>(v & ~kLockBit);
}
std::uint64_t version_of(std::uint64_t v) { return v >> 1; }
std::uint64_t make_locked(const Tx* tx) {
  return reinterpret_cast<std::uint64_t>(tx) | kLockBit;
}
std::uint64_t make_version(std::uint64_t ts) { return ts << 1; }

// Transactional data words are read speculatively while a committer may be
// writing them back (the versioned-lock re-check discards such reads), so
// every access to them is a relaxed atomic: the same x86-64 code as a
// plain access, but defined behaviour under the C++ memory model.
std::uint64_t load_relaxed(const void* word) {
  return std::atomic_ref<std::uint64_t>(
             *static_cast<std::uint64_t*>(const_cast<void*>(word)))
      .load(std::memory_order_relaxed);
}
void store_relaxed(void* word, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(*static_cast<std::uint64_t*>(word))
      .store(v, std::memory_order_relaxed);
}

// Byte mask for an n-byte field at byte offset `off` within a word.
std::uint64_t byte_mask(unsigned off, unsigned n) {
  if (n >= 8) return ~std::uint64_t{0};
  return ((std::uint64_t{1} << (n * 8)) - 1) << (off * 8);
}

// --- Write-set lookup accelerators ---
// Up to this many entries a reverse linear scan beats any index; the
// studied synthetic workloads rarely exceed it, so the hash index only
// kicks in for large transactions (rbtree rebalances, STAMP).
constexpr std::size_t kWindexThreshold = 8;

std::uint64_t filter_bit(std::uintptr_t word_addr) {
  return std::uint64_t{1} << ((word_addr >> 3) & 63);
}

// Fibonacci multiplicative hash over the word index; high bits feed the
// power-of-two table.
std::size_t hash_word(std::uintptr_t word_addr) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(word_addr >> 3) * 0x9e3779b97f4a7c15ull) >>
      32);
}

}  // namespace

// ---------------------------------------------------------------------------
// TxObjectCache
// ---------------------------------------------------------------------------

namespace detail {

// 2MB: >= any L1/L2 set-aliasing span (an 8-way 16MB L2 bank would span
// 2MB of sets), so every lock word's cache set index is determined by its
// table offset alone. See the OrtTable comment in stm.hpp.
constexpr std::size_t kOrtAlignment = std::size_t{1} << 21;

OrtTable::OrtTable(std::size_t count) {
  // Over-map, trim to the 2MB-aligned window (the PageProvider recipe, but
  // host-level only: ORT metadata is runtime bookkeeping, not application
  // memory, so it must not tick virtual time or count as a reservation).
  const std::size_t size =
      round_up(count * sizeof(VLock), std::size_t{4096});
  const std::size_t over = size + kOrtAlignment;
  void* raw = mmap(nullptr, over, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  TMX_ASSERT_MSG(raw != MAP_FAILED, "ORT mapping failed");
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = round_up(base, kOrtAlignment);
  const std::size_t head = aligned - base;
  if (head != 0) munmap(raw, head);
  if (over - head - size != 0) {
    munmap(reinterpret_cast<void*>(aligned + size), over - head - size);
  }
  base_ = reinterpret_cast<void*>(aligned);
  length_ = size;
  locks_ = static_cast<VLock*>(base_);
  std::uninitialized_value_construct_n(locks_, count);
}

OrtTable::~OrtTable() {
  if (base_ != nullptr) munmap(base_, length_);
}

int TxObjectCache::bin_for_request(std::size_t size) {
  if (size == 0) size = 1;
  if (size > kMaxObjectSize) return -1;
  return static_cast<int>((round_up(size, 8) / 8) - 1);
}

int TxObjectCache::bin_for_capacity(std::size_t capacity) {
  // Oversized blocks are not cached: binning them under a smaller size
  // would strand their surplus capacity forever.
  if (capacity < 8 || capacity > kMaxObjectSize) return -1;
  return static_cast<int>((round_down(capacity, 8) / 8) - 1);
}

void* TxObjectCache::take(std::size_t size) {
  const int first = bin_for_request(size);
  if (first < 0) return nullptr;
  // Scan a few larger bins too: allocators that round requests up (e.g.
  // Hoard's 48 -> 64) put their objects in a larger-capacity bin.
  const int last =
      std::min(first + 8, static_cast<int>(kNumBins) - 1);
  for (int b = first; b <= last; ++b) {
    if (bins_[b] != nullptr) {
      Node* n = bins_[b];
      bins_[b] = n->next;
      --counts_[b];
      return n;
    }
  }
  return nullptr;
}

bool TxObjectCache::offer(void* p, std::size_t capacity) {
  const int b = bin_for_capacity(capacity);
  if (b < 0 || counts_[b] >= kBinCap) return false;
  auto* n = static_cast<Node*>(p);
  n->next = bins_[b];
  bins_[b] = n;
  ++counts_[b];
  return true;
}

void TxObjectCache::drain(alloc::Allocator& a) {
  for (std::size_t b = 0; b < kNumBins; ++b) {
    while (bins_[b] != nullptr) {
      Node* n = bins_[b];
      bins_[b] = n->next;
      a.deallocate(n);
    }
    counts_[b] = 0;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------------

void Tx::begin() {
  doomed_ = false;
  stm_->tx_window_[tid_]->flag = true;
  // Epoch snapshot must precede any transactional allocation: blocks of
  // this transaction are homed to the phase current at its begin.
  if (TMX_UNLIKELY(stm_->tx_hints_)) {
    stm_->cfg_.allocator->tx_begin_hint(tid_);
  }
  start_ts_ = end_ts_ = stm_->clock_.load(std::memory_order_acquire);
  read_set_.clear();
  write_set_.clear();
  tx_allocs_.clear();
  tx_frees_.clear();
  write_filter_ = 0;
  windex_count_ = 0;
  if (++windex_gen_ == 0) {
    // Generation wrapped: stale tags could alias the new generation.
    std::fill(windex_.begin(), windex_.end(), std::uint64_t{0});
    windex_gen_ = 1;
  }
  ++stats_.starts;
  // The acquire load of the global clock above synchronizes with committing
  // transactions' fetch_add: a real happens-before edge the race prong
  // mirrors.
  if (TMX_UNLIKELY(check::enabled())) check::on_tx_begin(tid_);
  if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_begin(tid_);
  TMX_OBS_EVENT(obs::EventKind::kTxBegin);
  sim::tick(sim::Cost::kBarrier);
}

void Tx::push_write(const WriteEntry& e) {
  write_filter_ |= filter_bit(e.addr);
  write_set_.push_back(e);
  // The hash index (if any) catches up lazily on the next indexed lookup.
}

void Tx::windex_insert(std::uintptr_t word_addr, std::uint32_t idx) {
  const std::size_t mask = windex_.size() - 1;
  std::size_t i = hash_word(word_addr) & mask;
  // Word addresses in the write set are unique (every insertion is guarded
  // by a failed find_write or by owning a freshly acquired lock), so
  // probing only needs a free slot. Slots from older generations read as
  // empty.
  while ((windex_[i] >> 32) == windex_gen_) i = (i + 1) & mask;
  windex_[i] = (static_cast<std::uint64_t>(windex_gen_) << 32) |
               static_cast<std::uint64_t>(idx + 1);
}

void Tx::windex_rebuild(std::size_t capacity) {
  windex_.assign(capacity, 0);
  if (windex_gen_ == 0) windex_gen_ = 1;
  for (std::uint32_t i = 0; i < write_set_.size(); ++i) {
    windex_insert(write_set_[i].addr, i);
  }
  windex_count_ = static_cast<std::uint32_t>(write_set_.size());
}

WriteEntry* Tx::find_write(std::uintptr_t word_addr) {
  // O(1) negative answer: a word never written cannot have its filter bit
  // set. This is the common case for stores to fresh words and for
  // read-own-write checks on stripes whose other words were written.
  if ((write_filter_ & filter_bit(word_addr)) == 0) return nullptr;
  const std::size_t n = write_set_.size();
  if (n <= kWindexThreshold) {
    // Reverse scan: recently written words are the likeliest hits and
    // write sets this small fit a cache line or two.
    for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
      if (it->addr == word_addr) return &*it;
    }
    return nullptr;
  }
  // Large write set: consult the hash index, growing/catching it up first.
  // Load factor stays <= 1/2 so probe chains terminate on an empty slot.
  if (windex_.size() < 2 * n) {
    std::size_t cap = windex_.empty() ? 4 * kWindexThreshold : windex_.size();
    while (cap < 2 * n) cap *= 2;
    windex_rebuild(cap);
  } else {
    for (; windex_count_ < n; ++windex_count_) {
      windex_insert(write_set_[windex_count_].addr, windex_count_);
    }
  }
  const std::size_t mask = windex_.size() - 1;
  std::size_t i = hash_word(word_addr) & mask;
  while ((windex_[i] >> 32) == windex_gen_) {
    WriteEntry& e =
        write_set_[static_cast<std::uint32_t>(windex_[i] & 0xffffffffu) - 1];
    if (e.addr == word_addr) return &e;
    i = (i + 1) & mask;
  }
  return nullptr;
}

std::uint64_t Tx::load_word(const void* addr) {
  if (TMX_UNLIKELY(doomed_)) return 0;
  TMX_ASSERT((reinterpret_cast<std::uintptr_t>(addr) & 7) == 0);
  if (hw_mode_) return load_word_hw(addr);
  ++stats_.reads;
  sim::tick(sim::Cost::kBarrier);
  sim::yield();
  VLock* l = stm_->lock_for(addr);
  sim::probe(l, 8, false);
  std::uint64_t v = l->v.load(std::memory_order_acquire);
  for (;;) {
    if (is_locked(v)) {
      if (owner_of(v) != this) {
        conflict(AbortCause::kReadLocked, addr);
        return 0;
      }
      // Read-own-write. Write-through already updated memory; write-back
      // composes the buffered bytes over the current memory word.
      sim::probe(addr, 8, false);
      std::uint64_t mem = load_relaxed(addr);
      if (stm_->cfg_.design != StmDesign::kWriteThroughEtl) {
        if (WriteEntry* e =
                find_write(reinterpret_cast<std::uintptr_t>(addr))) {
          mem = (mem & ~e->mask) | (e->value & e->mask);
        }
      }
      return mem;
    }
    const std::uint64_t ver = version_of(v);
    sim::probe(addr, 8, false);
    const std::uint64_t val = load_relaxed(addr);
    const std::uint64_t v2 = l->v.load(std::memory_order_acquire);
    if (v2 != v) {  // concurrent commit touched this stripe; re-inspect
      v = v2;
      continue;
    }
    if (ver > end_ts_) {
      // The stripe is newer than our snapshot: try to extend it.
      if (!extend()) {
        conflict(AbortCause::kValidation);
        return 0;
      }
      v = l->v.load(std::memory_order_acquire);
      continue;
    }
    read_set_.push_back(ReadEntry{l, ver});
    if (stm_->cfg_.design == StmDesign::kCommitTimeLocking) {
      // Under commit-time locking our own writes leave the stripe
      // unlocked, so read-own-write must consult the buffer here.
      if (WriteEntry* e =
              find_write(reinterpret_cast<std::uintptr_t>(addr))) {
        return (val & ~e->mask) | (e->value & e->mask);
      }
    }
    return val;
  }
}

void Tx::store_word(void* addr, std::uint64_t value, std::uint64_t mask) {
  if (TMX_UNLIKELY(doomed_)) return;
  TMX_ASSERT((reinterpret_cast<std::uintptr_t>(addr) & 7) == 0);
  if (hw_mode_) {
    store_word_hw(addr, value, mask);
    return;
  }
  ++stats_.writes;
  sim::tick(sim::Cost::kBarrier);
  sim::yield();
  if (stm_->cfg_.design == StmDesign::kCommitTimeLocking) {
    // TL2: buffer the store; locks are taken at commit.
    VLock* l0 = stm_->lock_for(addr);
    sim::probe(l0, 8, false);
    const std::uint64_t v = l0->v.load(std::memory_order_acquire);
    if (is_locked(v) && owner_of(v) != this) {
      conflict(AbortCause::kWriteLocked, addr);  // another commit in flight
      return;
    }
    if (!is_locked(v) && version_of(v) > end_ts_ && !extend()) {
      conflict(AbortCause::kValidation);
      return;
    }
    const auto word = reinterpret_cast<std::uintptr_t>(addr);
    if (WriteEntry* e = find_write(word)) {
      e->value = (e->value & ~mask) | (value & mask);
      e->mask |= mask;
    } else {
      push_write(
          WriteEntry{word, value, mask, l0, /*prev=*/0, /*acquired=*/false});
    }
    return;
  }
  const bool write_back = stm_->cfg_.design == StmDesign::kWriteBackEtl;
  VLock* l = stm_->lock_for(addr);
  sim::probe(l, 8, true);
  std::uint64_t v = l->v.load(std::memory_order_acquire);
  // Write-through applies the store to memory at encounter time; the
  // write set doubles as a first-touch undo log of whole words.
  auto apply_through = [&](std::uintptr_t word) {
    auto* wp = reinterpret_cast<std::uint64_t*>(word);
    if (find_write(word) == nullptr) {
      push_write(WriteEntry{word, /*old value*/ load_relaxed(wp),
                            ~std::uint64_t{0}, l, /*prev=*/0,
                            /*acquired=*/false});
    }
    sim::probe(wp, 8, true);
    store_relaxed(wp, (load_relaxed(wp) & ~mask) | (value & mask));
  };
  for (;;) {
    if (is_locked(v)) {
      if (owner_of(v) != this) {
        conflict(AbortCause::kWriteLocked, addr);
        return;
      }
      const auto word = reinterpret_cast<std::uintptr_t>(addr);
      if (!write_back) {
        apply_through(word);
        return;
      }
      if (WriteEntry* e = find_write(word)) {
        e->value = (e->value & ~mask) | (value & mask);
        e->mask |= mask;
      } else {
        push_write(
            WriteEntry{word, value, mask, l, /*prev=*/0, /*acquired=*/false});
      }
      return;
    }
    if (version_of(v) > end_ts_) {
      if (!extend()) {
        conflict(AbortCause::kValidation);
        return;
      }
      v = l->v.load(std::memory_order_acquire);
      continue;
    }
    // Encounter-time locking: acquire now.
    sim::tick(sim::Cost::kAtomicRmw);
    if (!l->v.compare_exchange_strong(v, make_locked(this),
                                      std::memory_order_acq_rel)) {
      continue;  // v reloaded by the failed CAS
    }
    TMX_OBS_EVENT(obs::EventKind::kStripeAcquire,
                  reinterpret_cast<std::uintptr_t>(addr),
                  stm_->ort_index(addr));
    const auto word = reinterpret_cast<std::uintptr_t>(addr);
    if (!write_back) {
      auto* wp = reinterpret_cast<std::uint64_t*>(word);
      push_write(WriteEntry{word, /*old value*/ load_relaxed(wp),
                            ~std::uint64_t{0}, l, /*prev=*/v,
                            /*acquired=*/true});
      sim::probe(wp, 8, true);
      store_relaxed(wp, (load_relaxed(wp) & ~mask) | (value & mask));
      return;
    }
    push_write(WriteEntry{word, value, mask, l, /*prev=*/v,
                          /*acquired=*/true});
    return;
  }
}

bool Tx::validate() {
  for (const ReadEntry& r : read_set_) {
    const std::uint64_t v = r.lock->v.load(std::memory_order_acquire);
    if (is_locked(v)) {
      if (owner_of(v) != this) return false;
      // We own it; the version we read must still be the pre-lock version.
      // Our own acquisition recorded `prev`; find it.
      // (Cheap path: any stripe we both read and wrote was read first with
      // version <= end_ts_, and we only lock unchanged stripes.)
      continue;
    }
    if (version_of(v) != r.version) return false;
  }
  return true;
}

bool Tx::extend() {
  const std::uint64_t now = stm_->clock_.load(std::memory_order_acquire);
  if (!validate()) return false;
  end_ts_ = now;
  ++stats_.extensions;
  // Snapshot extension re-acquires the clock: same edge as begin.
  if (TMX_UNLIKELY(check::enabled()) && !hw_mode_) check::on_tx_extend(tid_);
  return true;
}

void Tx::commit() {
  if (TMX_UNLIKELY(doomed_)) return;
  // Fault plane: an injected spurious abort surfaces as a validation
  // failure at commit entry. Irrevocable transactions are shielded — they
  // must not abort.
  if (TMX_UNLIKELY(fault::enabled()) && !irrevocable_ &&
      fault::should_inject_abort()) {
    conflict(AbortCause::kValidation);
    return;
  }
  sim::tick(sim::Cost::kBarrier);
  sim::yield();
  if (write_set_.empty()) {
    if (TMX_UNLIKELY(check::enabled())) {
      check::on_tx_commit(tid_, nullptr, 0, tx_allocs_.data(),
                          tx_allocs_.size(), tx_frees_.data(),
                          tx_frees_.size(), /*bumped_clock=*/false);
    }
    // Read-only transactions were validated as they went, but deferred
    // frees still execute now (a transaction may free without writing).
    release_deferred_frees();
    // The hint comes after the deferred frees so a quiescent commit
    // boundary sees their live-block decrements.
    if (TMX_UNLIKELY(stm_->tx_hints_)) {
      stm_->cfg_.allocator->tx_commit_hint(tid_);
    }
    ++stats_.commits;
    if (TMX_UNLIKELY(irrevocable_)) ++stats_.irrevocable_commits;
    if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_commit(tid_);
    TMX_OBS_EVENT(obs::EventKind::kTxCommit, read_set_.size(),
                  write_set_.size());
    consecutive_aborts_ = 0;
    cause_streak_ = 0;
    stm_->tx_window_[tid_]->flag = false;
    return;
  }
  if (stm_->cfg_.design == StmDesign::kCommitTimeLocking) {
    // Acquire every written stripe now (TL2). A failure aborts; rollback
    // releases whatever was acquired.
    for (WriteEntry& e : write_set_) {
      std::uint64_t v = e.lock->v.load(std::memory_order_acquire);
      if (is_locked(v)) {
        if (owner_of(v) == this) continue;  // duplicate stripe
        conflict(AbortCause::kWriteLocked,
                 reinterpret_cast<const void*>(e.addr));
        return;
      }
      if (version_of(v) > end_ts_ && !extend()) {
        conflict(AbortCause::kValidation);
        return;
      }
      sim::tick(sim::Cost::kAtomicRmw);
      if (!e.lock->v.compare_exchange_strong(v, make_locked(this),
                                             std::memory_order_acq_rel)) {
        conflict(AbortCause::kWriteLocked,
                 reinterpret_cast<const void*>(e.addr));
        return;
      }
      e.prev = v;
      e.acquired = true;
      TMX_OBS_EVENT(obs::EventKind::kStripeAcquire, e.addr,
                    stm_->ort_index(reinterpret_cast<const void*>(e.addr)));
    }
  }
  sim::tick(sim::Cost::kAtomicRmw);
  const std::uint64_t ts =
      stm_->clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (ts > start_ts_ + 1 && !validate()) {
    conflict(AbortCause::kValidation);
    return;
  }
  // Write back the buffered values (write-through already updated
  // memory), then release the locks at version ts.
  if (stm_->cfg_.design != StmDesign::kWriteThroughEtl) {
    for (const WriteEntry& e : write_set_) {
      auto* word = reinterpret_cast<std::uint64_t*>(e.addr);
      sim::probe(word, 8, true);
      if (e.mask == ~std::uint64_t{0}) {
        store_relaxed(word, e.value);
      } else {
        store_relaxed(word,
                      (load_relaxed(word) & ~e.mask) | (e.value & e.mask));
      }
    }
  }
  if (TMX_UNLIKELY(check::enabled())) {
    // Hand the checker the post-write-back word contents while the stripe
    // locks are still held: this is the publication snapshot the rest of
    // the system will observe.
    std::vector<check::CommittedWrite> cw;
    cw.reserve(write_set_.size());
    for (const WriteEntry& e : write_set_) {
      std::uint8_t bm = 0;
      for (int i = 0; i < 8; ++i) {
        if ((e.mask >> (8 * i)) & 0xffull) {
          bm |= static_cast<std::uint8_t>(1u << i);
        }
      }
      cw.push_back(check::CommittedWrite{
          e.addr, bm, load_relaxed(reinterpret_cast<const void*>(e.addr))});
    }
    check::on_tx_commit(tid_, cw.data(), cw.size(), tx_allocs_.data(),
                        tx_allocs_.size(), tx_frees_.data(), tx_frees_.size(),
                        /*bumped_clock=*/true);
  }
  for (const WriteEntry& e : write_set_) {
    if (e.acquired) {
      sim::probe(e.lock, 8, true);
      e.lock->v.store(make_version(ts), std::memory_order_release);
      TMX_OBS_EVENT(obs::EventKind::kStripeRelease, 0,
                    stm_->ort_index(reinterpret_cast<const void*>(e.addr)));
    }
  }
  // Deferred frees execute only now that the transaction is durable.
  release_deferred_frees();
  if (TMX_UNLIKELY(stm_->tx_hints_)) {
    stm_->cfg_.allocator->tx_commit_hint(tid_);
  }
  ++stats_.commits;
  if (TMX_UNLIKELY(irrevocable_)) ++stats_.irrevocable_commits;
  if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_commit(tid_);
  TMX_OBS_EVENT(obs::EventKind::kTxCommit, read_set_.size(),
                write_set_.size());
  consecutive_aborts_ = 0;
  cause_streak_ = 0;
  stm_->tx_window_[tid_]->flag = false;
}

void Tx::release_deferred_frees() {
  for (void* p : tx_frees_) {
    if (stm_->cfg_.tx_alloc_cache &&
        alloc_cache_.offer(p, stm_->cfg_.allocator->usable_size(p))) {
      continue;
    }
    stm_->cfg_.allocator->deallocate(p);
  }
}

void Tx::rollback(AbortCause cause, [[maybe_unused]] std::uintptr_t addr) {
  // Write-through: undo the in-place stores before releasing any lock
  // (readers are shut out while the locks are held).
  if (stm_->cfg_.design == StmDesign::kWriteThroughEtl) {
    for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
      store_relaxed(reinterpret_cast<void*>(it->addr), it->value);
    }
  }
  // Release encounter-time locks, restoring the pre-acquisition versions.
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    if (it->acquired) {
      it->lock->v.store(it->prev, std::memory_order_release);
      TMX_OBS_EVENT(obs::EventKind::kStripeRelease, 0,
                    stm_->ort_index(reinterpret_cast<const void*>(it->addr)));
    }
  }
  // Transactional allocations never happened: return them.
  if (TMX_UNLIKELY(check::enabled())) {
    check::on_tx_abort(tid_, tx_allocs_.data(), tx_allocs_.size());
  }
  for (const auto& [p, size] : tx_allocs_) {
    if (stm_->cfg_.tx_alloc_cache && alloc_cache_.offer(p, size)) continue;
    stm_->cfg_.allocator->deallocate(p);
  }
  if (TMX_UNLIKELY(stm_->tx_hints_)) {
    stm_->cfg_.allocator->tx_abort_hint(tid_);
  }
  ++stats_.aborts;
  ++stats_.aborts_by_cause[static_cast<int>(cause)];
  // Same-cause streak tracking: a livelocking stripe shows up as a long
  // read_locked/write_locked streak in the metrics before the retry cap
  // ever trips.
  cause_streak_ = (cause_streak_ > 0 && cause == last_abort_cause_)
                      ? cause_streak_ + 1
                      : 1;
  last_abort_cause_ = cause;
  if (cause_streak_ >
      stats_.max_consec_aborts_by_cause[static_cast<int>(cause)]) {
    stats_.max_consec_aborts_by_cause[static_cast<int>(cause)] =
        cause_streak_;
  }
  if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_abort(tid_);
  TMX_OBS_EVENT(obs::EventKind::kTxAbort, addr,
                addr != 0
                    ? stm_->ort_index(reinterpret_cast<const void*>(addr))
                    : 0,
                static_cast<std::uint8_t>(cause));
  ++consecutive_aborts_;
  stm_->tx_window_[tid_]->flag = false;
  sim::tick(sim::Cost::kBarrier);
}

void Tx::read_bytes(const void* addr, void* out, std::size_t n) {
  if (TMX_UNLIKELY(doomed_)) return;
  if (TMX_UNLIKELY(check::enabled()) && !hw_mode_) {
    if (check::on_tx_access(tid_, addr, n, /*write=*/false,
                            /*write_in_place=*/false)) {
      // Touching freed memory: benign (zombie) iff our snapshot no longer
      // validates — the transaction is doomed and its result is discarded.
      check::on_tx_freed_access(tid_, addr, /*write=*/false, !validate());
    }
  }
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto* dst = static_cast<char*>(out);
  while (n > 0) {
    const std::uintptr_t word = round_down(a, 8);
    const unsigned off = static_cast<unsigned>(a - word);
    const unsigned take = static_cast<unsigned>(
        n < static_cast<std::size_t>(8 - off) ? n : 8 - off);
    const std::uint64_t w = load_word(reinterpret_cast<const void*>(word));
    if (TMX_UNLIKELY(doomed_)) return;
    std::memcpy(dst, reinterpret_cast<const char*>(&w) + off, take);
    a += take;
    dst += take;
    n -= take;
  }
}

void Tx::write_bytes(void* addr, const void* in, std::size_t n) {
  if (TMX_UNLIKELY(doomed_)) return;
  if (TMX_UNLIKELY(check::enabled()) && !hw_mode_) {
    const bool in_place =
        stm_->cfg_.design == StmDesign::kWriteThroughEtl;
    if (check::on_tx_access(tid_, addr, n, /*write=*/true, in_place)) {
      // A buffered write by a doomed transaction never reaches memory, so
      // it is zombie-benign; a write-through store mutates the freed block
      // in place regardless of the snapshot — always hard.
      check::on_tx_freed_access(tid_, addr, /*write=*/true,
                                !in_place && !validate());
    }
  }
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto* src = static_cast<const char*>(in);
  while (n > 0) {
    const std::uintptr_t word = round_down(a, 8);
    const unsigned off = static_cast<unsigned>(a - word);
    const unsigned take = static_cast<unsigned>(
        n < static_cast<std::size_t>(8 - off) ? n : 8 - off);
    std::uint64_t w = 0;
    std::memcpy(reinterpret_cast<char*>(&w) + off, src, take);
    store_word(reinterpret_cast<void*>(word), w, byte_mask(off, take));
    if (TMX_UNLIKELY(doomed_)) return;
    a += take;
    src += take;
    n -= take;
  }
}

void* Tx::malloc(std::size_t size) {
  if (TMX_UNLIKELY(doomed_)) return nullptr;
  ++stats_.tx_mallocs;
  if (stm_->cfg_.tx_alloc_cache) {
    if (void* p = alloc_cache_.take(size)) {
      ++stats_.alloc_cache_hits;
      tx_allocs_.emplace_back(p, size);
      if (TMX_UNLIKELY(check::enabled()) && !hw_mode_) {
        check::on_tx_malloc(tid_, p, size);
      }
      return p;
    }
  }
  void* p = stm_->cfg_.allocator->allocate(size);
  if (TMX_UNLIKELY(p == nullptr)) {
    // Recoverable OOM (injected or genuine): doom the attempt so the
    // rollback undoes tx_allocs_/tx_frees_, then retry per the contention
    // manager (a retry cap escalates to irrevocable mode, whose allocations
    // are shielded from injection). An irrevocable transaction cannot
    // abort, so a genuine exhaustion there surfaces as a plain nullptr.
    ++stats_.oom_nulls;
    if (!irrevocable_) conflict(AbortCause::kOom);
    return nullptr;
  }
  // The *requested* size is recorded: on abort the object is offered back
  // to the cache under a bin its capacity is guaranteed to satisfy.
  tx_allocs_.emplace_back(p, size);
  if (TMX_UNLIKELY(check::enabled()) && !hw_mode_) {
    check::on_tx_malloc(tid_, p, size);
  }
  return p;
}

void Tx::free(void* p) {
  if (p == nullptr || TMX_UNLIKELY(doomed_)) return;
  ++stats_.tx_frees;
  tx_frees_.push_back(p);
  if (TMX_UNLIKELY(check::enabled()) && !hw_mode_) {
    check::on_tx_free(tid_, p);
  }
}

void Tx::abort_jump() {
  TMX_ASSERT_MSG(checkpoint_ != nullptr, "abort outside Stm::atomically");
#if defined(__SANITIZE_ADDRESS__)
  // The skipped frames never run their epilogues, which would unpoison
  // their stack redzones.
  __asan_handle_no_return();
#endif
  __builtin_longjmp(checkpoint_, 1);
}


// ---------------------------------------------------------------------------
// Hardware path (hybrid mode): lazy TL2 with best-effort failure modes.
// ---------------------------------------------------------------------------

void Tx::begin_hw() {
  doomed_ = false;
  hw_mode_ = true;
  stm_->tx_window_[tid_]->flag = true;
  if (TMX_UNLIKELY(stm_->tx_hints_)) {
    stm_->cfg_.allocator->tx_begin_hint(tid_);
  }
  start_ts_ = end_ts_ = stm_->clock_.load(std::memory_order_acquire);
  read_set_.clear();
  write_set_.clear();
  tx_allocs_.clear();
  tx_frees_.clear();
  write_filter_ = 0;
  windex_count_ = 0;
  if (++windex_gen_ == 0) {
    std::fill(windex_.begin(), windex_.end(), std::uint64_t{0});
    windex_gen_ = 1;
  }
  ++stats_.hw_starts;
  if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_begin(tid_);
  TMX_OBS_EVENT(obs::EventKind::kTxBegin);
  sim::tick(sim::Cost::kBarrier);
}

std::uint64_t Tx::load_word_hw(const void* addr) {
  ++stats_.reads;
  // Hardware reads are plain loads; conflict tracking is the cache's job,
  // modeled here as version subscription against the snapshot.
  sim::tick(1);
  sim::yield();
  VLock* l = stm_->lock_for(addr);
  sim::probe(l, 8, false);
  const std::uint64_t v = l->v.load(std::memory_order_acquire);
  if (is_locked(v)) {
    hw_abort(HwAbortCause::kConflict);  // sw tx owns it
    return 0;
  }
  sim::probe(addr, 8, false);
  std::uint64_t mem = load_relaxed(addr);
  const std::uint64_t v2 = l->v.load(std::memory_order_acquire);
  if (v2 != v || version_of(v) > end_ts_) {
    hw_abort(HwAbortCause::kConflict);  // line changed under the snapshot
    return 0;
  }
  read_set_.push_back(ReadEntry{l, version_of(v)});
  if (read_set_.size() > stm_->cfg_.htm.max_read_entries) {
    hw_abort(HwAbortCause::kCapacity);
    return 0;
  }
  if (WriteEntry* e = find_write(reinterpret_cast<std::uintptr_t>(addr))) {
    mem = (mem & ~e->mask) | (e->value & e->mask);
  }
  return mem;
}

void Tx::store_word_hw(void* addr, std::uint64_t value, std::uint64_t mask) {
  ++stats_.writes;
  sim::tick(1);
  sim::yield();
  VLock* l = stm_->lock_for(addr);
  sim::probe(l, 8, false);
  const std::uint64_t v = l->v.load(std::memory_order_acquire);
  if (is_locked(v) || version_of(v) > end_ts_) {
    hw_abort(HwAbortCause::kConflict);
    return;
  }
  const auto word = reinterpret_cast<std::uintptr_t>(addr);
  if (WriteEntry* e = find_write(word)) {
    e->value = (e->value & ~mask) | (value & mask);
    e->mask |= mask;
    return;
  }
  push_write(WriteEntry{word, value, mask, l, /*prev=*/0,
                        /*acquired=*/false});
  if (write_set_.size() > stm_->cfg_.htm.max_write_entries) {
    hw_abort(HwAbortCause::kCapacity);
  }
}

void Tx::commit_hw() {
  if (TMX_UNLIKELY(doomed_)) return;
  sim::tick(sim::Cost::kBarrier);
  if (backoff_rng_.uniform() < stm_->cfg_.htm.spurious_abort) {
    hw_abort(HwAbortCause::kSpurious);  // best-effort: no guarantees
    return;
  }
  if (write_set_.empty()) {
    // Read-only: each read was consistent with the begin snapshot.
    release_deferred_frees();
    if (TMX_UNLIKELY(stm_->tx_hints_)) {
      stm_->cfg_.allocator->tx_commit_hint(tid_);
    }
    ++stats_.hw_commits;
    if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_commit(tid_);
    TMX_OBS_EVENT(obs::EventKind::kTxCommit, read_set_.size(),
                  write_set_.size());
    hw_mode_ = false;
    stm_->tx_window_[tid_]->flag = false;
    return;
  }
  // Acquire the written stripes (lazy TL2), validate, publish, release.
  std::size_t acquired = 0;
  for (WriteEntry& e : write_set_) {
    std::uint64_t v = e.lock->v.load(std::memory_order_acquire);
    if (is_locked(v)) {
      if (owner_of(v) == this) continue;  // duplicate stripe in the set
      break;
    }
    if (version_of(v) > end_ts_) break;
    sim::tick(sim::Cost::kAtomicRmw);
    if (!e.lock->v.compare_exchange_strong(v, make_locked(this),
                                           std::memory_order_acq_rel)) {
      break;
    }
    e.prev = v;
    e.acquired = true;
    TMX_OBS_EVENT(obs::EventKind::kStripeAcquire, e.addr,
                  stm_->ort_index(reinterpret_cast<const void*>(e.addr)));
    ++acquired;
    (void)acquired;
  }
  const bool all_acquired =
      write_set_.empty() ||
      [&] {
        for (const WriteEntry& e : write_set_) {
          const std::uint64_t v = e.lock->v.load(std::memory_order_acquire);
          if (!is_locked(v) || owner_of(v) != this) return false;
        }
        return true;
      }();
  if (!all_acquired || !validate()) {
    hw_abort(HwAbortCause::kConflict);  // rollback_hw releases the locks
    return;
  }
  const std::uint64_t ts =
      stm_->clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (const WriteEntry& e : write_set_) {
    auto* word = reinterpret_cast<std::uint64_t*>(e.addr);
    sim::probe(word, 8, true);
    if (e.mask == ~std::uint64_t{0}) {
      store_relaxed(word, e.value);
    } else {
      store_relaxed(word,
                    (load_relaxed(word) & ~e.mask) | (e.value & e.mask));
    }
  }
  for (const WriteEntry& e : write_set_) {
    if (e.acquired) {
      e.lock->v.store(make_version(ts), std::memory_order_release);
      TMX_OBS_EVENT(obs::EventKind::kStripeRelease, 0,
                    stm_->ort_index(reinterpret_cast<const void*>(e.addr)));
    }
  }
  release_deferred_frees();
  if (TMX_UNLIKELY(stm_->tx_hints_)) {
    stm_->cfg_.allocator->tx_commit_hint(tid_);
  }
  ++stats_.hw_commits;
  if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_commit(tid_);
  TMX_OBS_EVENT(obs::EventKind::kTxCommit, read_set_.size(),
                write_set_.size());
  hw_mode_ = false;
  stm_->tx_window_[tid_]->flag = false;
}

void Tx::rollback_hw(HwAbortCause cause) {
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    if (it->acquired) {
      it->lock->v.store(it->prev, std::memory_order_release);
      TMX_OBS_EVENT(obs::EventKind::kStripeRelease, 0,
                    stm_->ort_index(reinterpret_cast<const void*>(it->addr)));
    }
  }
  for (const auto& [p, size] : tx_allocs_) {
    (void)size;
    stm_->cfg_.allocator->deallocate(p);
  }
  if (TMX_UNLIKELY(stm_->tx_hints_)) {
    stm_->cfg_.allocator->tx_abort_hint(tid_);
  }
  ++stats_.hw_aborts_by_cause[static_cast<int>(cause)];
  if (TMX_UNLIKELY(prof::enabled())) prof::on_tx_abort(tid_);
  // Hardware-path causes are traced offset past the five software causes
  // (5 = hw conflict, 6 = capacity, 7 = spurious, 8 = explicit) and carry
  // no faulting address, so the attribution profiler leaves them
  // unattributed rather than guessing.
  TMX_OBS_EVENT(obs::EventKind::kTxAbort, 0, 0,
                static_cast<std::uint8_t>(kNumAbortCauses +
                                          static_cast<int>(cause)));
  hw_mode_ = false;
  stm_->tx_window_[tid_]->flag = false;
  sim::tick(sim::Cost::kBarrier);
}

// ---------------------------------------------------------------------------
// Stm
// ---------------------------------------------------------------------------

Stm::Stm(const Config& cfg) : cfg_(cfg) {
  TMX_ASSERT_MSG(cfg_.allocator != nullptr,
                 "Stm requires a backing allocator");
  tx_hints_ = cfg_.allocator->wants_tx_hints();
  TMX_ASSERT(cfg_.ort_log2 >= 4 && cfg_.ort_log2 <= 26);
  ort_mask_ = (std::size_t{1} << cfg_.ort_log2) - 1;
  ort_ = detail::OrtTable(ort_mask_ + 1);
  if (cfg_.ort_shards > 1) {
    // Split the lock budget across per-node stripe tables (keeping at
    // least 2^10 stripes per shard so tiny configs don't degenerate into
    // one giant conflict stripe), and home each table on its node: under
    // a multi-node cache model, same-node data then finds same-node lock
    // metadata, which is the point of the sharding.
    const unsigned shards = cfg_.ort_shards;
    const unsigned drop = log2_ceil(shards);
    const unsigned shard_log2 =
        cfg_.ort_log2 > drop + 10 ? cfg_.ort_log2 - drop : 10;
    shard_mask_ = (std::size_t{1} << shard_log2) - 1;
    ort_shards_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      ort_shards_.push_back(detail::OrtTable(shard_mask_ + 1));
      sim::numa_register_range(ort_shards_.back().get(),
                               (shard_mask_ + 1) * sizeof(VLock), s);
    }
  }
  descriptor_storage_ =
      std::make_unique<std::array<Padded<Tx>, kMaxThreads>>();
  for (int i = 0; i < kMaxThreads; ++i) {
    Tx& tx = *(*descriptor_storage_)[i];
    // Reserved once and reused across every transaction and retry on this
    // descriptor: begin() only clear()s, so the hot path never reallocates.
    tx.read_set_.reserve(256);
    tx.write_set_.reserve(64);
    tx.tx_allocs_.reserve(32);
    tx.tx_frees_.reserve(32);
    // Distinct jitter streams per descriptor: identical streams would keep
    // symmetric conflicting transactions in lockstep (see contention_wait).
    tx.backoff_rng_.reseed(thread_seed(0xb0ff, i));
    descriptors_[i] = &tx;
  }
}

Stm::~Stm() {
  for (Tx* tx : descriptors_) {
    tx->alloc_cache_.drain(*cfg_.allocator);
  }
  for (const auto& shard : ort_shards_) {
    sim::numa_unregister_range(shard.get());
  }
}

TxStats Stm::stats() const {
  TxStats total;
  for (const Tx* tx : descriptors_) total.add(tx->stats_);
  return total;
}

const TxStats& Stm::thread_stats(int tid) const {
  return descriptors_[tid]->stats_;
}

void Stm::reset_stats() {
  for (Tx* tx : descriptors_) tx->stats_ = TxStats{};
}

void publish_metrics(const TxStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "starts", stats.starts);
  reg.set_counter(prefix + "commits", stats.commits);
  reg.set_counter(prefix + "aborts", stats.aborts);
  static const char* kCauses[kNumAbortCauses] = {"read_locked", "write_locked",
                                                 "validation", "explicit",
                                                 "oom"};
  for (int i = 0; i < kNumAbortCauses; ++i) {
    reg.set_counter(prefix + "aborts." + kCauses[i],
                    stats.aborts_by_cause[i]);
  }
  reg.set_counter(prefix + "extensions", stats.extensions);
  reg.set_counter(prefix + "tx_mallocs", stats.tx_mallocs);
  reg.set_counter(prefix + "tx_frees", stats.tx_frees);
  reg.set_counter(prefix + "alloc_cache_hits", stats.alloc_cache_hits);
  reg.set_counter(prefix + "reads", stats.reads);
  reg.set_counter(prefix + "writes", stats.writes);
  reg.set_gauge(prefix + "abort_ratio", stats.abort_ratio());
  // Degradation counters are emitted only when the run actually degraded,
  // keeping the schema of healthy runs unchanged.
  if (stats.oom_nulls > 0) {
    reg.set_counter(prefix + "oom.nulls", stats.oom_nulls);
    reg.set_counter(prefix + "oom.aborts",
                    stats.aborts_by_cause[static_cast<int>(AbortCause::kOom)]);
  }
  if (stats.irrevocable_entries > 0) {
    reg.set_counter(prefix + "irrevocable.entries", stats.irrevocable_entries);
    reg.set_counter(prefix + "irrevocable.commits", stats.irrevocable_commits);
  }
  // Backoff counters only appear under --cm backoff (suicide never waits
  // through this path), keeping the default schema unchanged.
  if (stats.backoff_waits > 0) {
    reg.set_counter(prefix + "backoff.waits", stats.backoff_waits);
    reg.set_counter(prefix + "backoff.cycles", stats.backoff_cycles);
  }
  for (int i = 0; i < kNumAbortCauses; ++i) {
    if (stats.max_consec_aborts_by_cause[i] > 0) {
      reg.set_counter(prefix + "aborts.max_consecutive." + kCauses[i],
                      stats.max_consec_aborts_by_cause[i]);
    }
  }
  // Hybrid-mode counters are emitted only when the hardware path ran, so
  // software-only runs keep a compact, stable schema.
  if (stats.hw_starts > 0) {
    reg.set_counter(prefix + "hw.starts", stats.hw_starts);
    reg.set_counter(prefix + "hw.commits", stats.hw_commits);
    static const char* kHwCauses[4] = {"conflict", "capacity", "spurious",
                                       "explicit"};
    for (int i = 0; i < 4; ++i) {
      reg.set_counter(prefix + "hw.aborts." + kHwCauses[i],
                      stats.hw_aborts_by_cause[i]);
    }
    reg.set_counter(prefix + "hw.fallbacks", stats.fallbacks);
  }
}

// ---------------------------------------------------------------------------
// Serial-irrevocable escalation (graceful degradation under retry storms).
// ---------------------------------------------------------------------------

void Stm::serial_gate(Tx& tx) {
  if (tx.irrevocable_) return;  // already own the token (restart keeps it)
  if (tx.consecutive_aborts_ >= cfg_.retry_cap) {
    enter_serial(tx);
    return;
  }
  // Someone else is irrevocable: block until the token is released so the
  // serial transaction observes a quiesced system and cannot conflict.
  while (serial_owner_.load(std::memory_order_acquire) != -1) sim::relax();
}

void Stm::enter_serial(Tx& tx) {
  // Acquire the global token, then wait for every in-flight transaction to
  // drain. New transactions block in serial_gate, so once the window flags
  // are clear no other thread holds stripe locks or can bump the clock —
  // the irrevocable transaction validates trivially and cannot abort.
  int expected = -1;
  while (!serial_owner_.compare_exchange_weak(expected, tx.tid_,
                                              std::memory_order_acq_rel)) {
    expected = -1;
    sim::relax();
  }
  sim::tick(sim::Cost::kAtomicRmw);
  for (int t = 0; t < kMaxThreads; ++t) {
    if (t == tx.tid_) continue;
    while (tx_window_[t]->flag) sim::relax();
  }
  tx.irrevocable_ = true;
  ++tx.stats_.irrevocable_entries;
  // The system is provably quiescent: every other thread is parked outside
  // a tx window and blocked in serial_gate. Hand hint-aware allocators the
  // window (phase reclamation/compaction) before the serial body runs —
  // its allocations then land in the post-compaction heap. The descriptor
  // alloc caches are drained first so cached-but-dead blocks don't pin
  // their phases (and can't be relocated out from under the cache).
  if (TMX_UNLIKELY(tx_hints_)) {
    for (Tx* t : descriptors_) t->alloc_cache_.drain(*cfg_.allocator);
    cfg_.allocator->on_quiescence(true);
  }
  // Injected faults must not hit the path of last resort.
  fault::set_shield(tx.tid_, true);
}

void Stm::exit_serial(Tx& tx) {
  fault::set_shield(tx.tid_, false);
  tx.irrevocable_ = false;
  serial_owner_.store(-1, std::memory_order_release);
}

void Stm::maintenance_gate(Tx& tx) {
  if (tx.irrevocable_) return;
  while (maint_gate_.load(std::memory_order_acquire)) sim::relax();
}

void Stm::maintenance_quiescence() {
  if (!tx_hints_) return;
  // Close the maintenance gate: new transactions of hint-aware runs block
  // before opening their tx window (see atomically), in-flight ones
  // finish. An escalated irrevocable transaction is exempt from the gate,
  // so waiting out serial_owner_ below cannot deadlock against it.
  bool expected = false;
  while (!maint_gate_.compare_exchange_weak(expected, true,
                                            std::memory_order_acq_rel)) {
    expected = false;
    sim::relax();
  }
  sim::tick(sim::Cost::kAtomicRmw);
  while (serial_owner_.load(std::memory_order_acquire) != -1) sim::relax();
  for (int t = 0; t < kMaxThreads; ++t) {
    while (tx_window_[t]->flag) sim::relax();
  }
  for (Tx* t : descriptors_) t->alloc_cache_.drain(*cfg_.allocator);
  cfg_.allocator->on_quiescence(true);
  maint_gate_.store(false, std::memory_order_release);
}

void Stm::contention_wait(Tx& tx) {
  switch (cfg_.cm) {
    case ContentionManager::kSuicide: {
      // Restart immediately. The random jitter models the timing noise of
      // real hardware: without it, symmetric conflicting transactions
      // re-execute in perfect lockstep under the deterministic scheduler
      // and livelock forever. The window scales with the aborted
      // transaction's length — a fixed few-cycle jitter cannot
      // desynchronize transactions thousands of cycles long (observed as
      // a persistent mutual-abort cycle in Yada's cavity transactions).
      const std::uint64_t work =
          8 * (tx.read_set_.size() + tx.write_set_.size());
      sim::tick(tx.backoff_rng_.below(64 + work));
      sim::yield();
      break;
    }
    case ContentionManager::kBackoff: {
      const unsigned capped =
          tx.consecutive_aborts_ < 16 ? tx.consecutive_aborts_ : 16;
      const std::uint64_t window = std::uint64_t{1} << capped;
      const std::uint64_t delay = 64 + tx.backoff_rng_.below(window * 64);
      ++tx.stats_.backoff_waits;
      tx.stats_.backoff_cycles += delay;
      if (sim::in_sim()) {
        sim::tick(delay);
        sim::yield();
      } else {
        for (std::uint64_t i = 0; i < delay; ++i) sim::relax();
      }
      break;
    }
  }
}

}  // namespace tmx::stm
