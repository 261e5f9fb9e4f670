// A word-based, blocking software transactional memory, equivalent in design
// to TinySTM 1.0.4 as configured in the paper (Section 4):
//
//   * write-back, encounter-time locking (WB-ETL): a transactional store
//     acquires the versioned lock immediately and buffers the value; memory
//     is updated at commit;
//   * a global version clock and timestamp extension for reads;
//   * an ownership record table (ORT) of 2^20 versioned locks by default;
//     an address maps to an entry via (addr >> shift) mod ORT_SIZE with
//     shift = 5, so 32 consecutive bytes share one versioned lock — the
//     mapping the paper shows allocators interact with (Figure 5);
//   * SUICIDE contention management (abort self, restart immediately), with
//     exponential backoff available as an ablation;
//   * an external-allocator interface: transactional allocations are undone
//     on abort and transactional frees deferred to commit, with an optional
//     thread-local object cache (the Section 6.2 optimization, Table 7).
#pragma once

#include <atomic>
#include <csetjmp>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/instrument.hpp"
#include "obs/attribution.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"
#include "util/rng.hpp"

namespace tmx::stm {

enum class ContentionManager { kSuicide, kBackoff };

// The lock-acquisition designs of TinySTM: encounter-time locking with
// write-back buffering (the paper's default configuration), encounter-time
// locking with write-through + undo log, and TL2-style commit-time locking
// (stores buffer without acquiring; the commit acquires, validates and
// publishes).
enum class StmDesign { kWriteBackEtl, kWriteThroughEtl, kCommitTimeLocking };

// Best-effort HTM model for the hybrid mode (the paper's future work:
// "hybrid approaches based on best-effort hardware transactional memory").
// The hardware path is a lazy TL2: reads subscribe to versioned-lock
// versions, writes are buffered, commit acquires the written stripes,
// validates and publishes — with hardware-realistic failure modes:
// bounded read/write capacity and spurious aborts. After `attempts`
// failures the transaction falls back to the software path.
struct HtmConfig {
  bool enabled = false;
  int attempts = 3;
  std::size_t max_read_entries = 512;  // ~L2-resident read set (stripes)
  std::size_t max_write_entries = 64;  // ~L1-resident write set (stripes)
  double spurious_abort = 0.01;        // per-commit probability
};

struct Config {
  unsigned ort_log2 = 20;  // number of versioned locks = 2^ort_log2
  unsigned shift = 5;      // bytes-per-stripe = 2^shift
  // NUMA-sharded ORT: with ort_shards > 1, every NUMA node owns a private
  // stripe table of 2^ort_log2 / shards versioned locks, homed on that
  // node, and an address whose home node is known (page-provider memory)
  // locks in its node's table; addresses with no registered home
  // (globals, stacks) fall back to the shared global table. 0/1 keeps the
  // paper's single global ORT — the configuration the golden determinism
  // constants pin.
  unsigned ort_shards = 0;
  StmDesign design = StmDesign::kWriteBackEtl;
  ContentionManager cm = ContentionManager::kSuicide;
  bool tx_alloc_cache = false;  // cache transactional objects thread-locally
  HtmConfig htm{};              // hybrid execution (off by default)
  alloc::Allocator* allocator = nullptr;  // backing allocator (required)
  // Graceful degradation: after `retry_cap` consecutive aborts of one
  // transaction, escalate it to serial-irrevocable mode — a global token is
  // acquired, in-flight transactions drain, and the transaction re-runs
  // alone, unable to abort. 0 disables escalation (the paper's TinySTM
  // configuration; required for the golden determinism constants).
  unsigned retry_cap = 0;
  // Watchdog: if one transaction (across all its retries) spans more than
  // this many virtual cycles, the run is declared livelocked and
  // sim::watchdog_trip exits the process after flushing diagnostics.
  // 0 disables the check.
  std::uint64_t tx_cycle_budget = 0;
};

// Abort causes, tallied separately (the synthetic-benchmark analysis keys on
// which barrier detected the conflict).
enum class AbortCause : std::uint8_t {
  kReadLocked = 0,   // read found the lock held by another transaction
  kWriteLocked = 1,  // write found the lock held by another transaction
  kValidation = 2,   // snapshot extension or commit validation failed
  kExplicit = 3,     // the transaction body requested a restart
  kOom = 4,          // a transactional allocation returned nullptr
};
inline constexpr int kNumAbortCauses = 5;

// Hardware-path abort causes (hybrid mode).
enum class HwAbortCause : std::uint8_t {
  kConflict = 0,  // commit validation failed / stripe already locked
  kCapacity = 1,  // read or write set exceeded the hardware bound
  kSpurious = 2,  // best-effort hardware gives no guarantees
  kExplicit = 3,  // the transaction body requested a restart
};

struct TxStats {
  std::uint64_t starts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t aborts_by_cause[kNumAbortCauses] = {};
  // Lock-collision aborts (kReadLocked/kWriteLocked) the sim engine
  // classified: the lock's owner had written the aborter's word (true) or
  // only other words of its stripe (false; see obs/attribution.hpp).
  std::uint64_t true_conflict_aborts = 0;
  std::uint64_t false_conflict_aborts = 0;
  std::uint64_t extensions = 0;
  std::uint64_t tx_mallocs = 0;
  std::uint64_t tx_frees = 0;
  std::uint64_t alloc_cache_hits = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  // Hybrid mode:
  std::uint64_t hw_starts = 0;
  std::uint64_t hw_commits = 0;
  std::uint64_t hw_aborts_by_cause[4] = {};
  std::uint64_t fallbacks = 0;  // transactions that took the software path
  // Degradation:
  std::uint64_t oom_nulls = 0;  // nullptrs seen by Tx::malloc
  std::uint64_t irrevocable_entries = 0;  // retry-cap escalations
  std::uint64_t irrevocable_commits = 0;  // commits in irrevocable mode
  // Contention-manager behavior (kBackoff draws a randomized exponential
  // window per consecutive abort; kSuicide leaves these at zero):
  std::uint64_t backoff_waits = 0;   // contention_wait calls under kBackoff
  std::uint64_t backoff_cycles = 0;  // virtual cycles spent in those waits
  // Longest same-cause abort streak, per cause: the observable footprint of
  // retry pathologies (a livelocking stripe shows up as a long kReadLocked
  // or kWriteLocked streak long before the retry cap trips).
  std::uint64_t max_consec_aborts_by_cause[kNumAbortCauses] = {};

  double abort_ratio() const {
    return starts == 0 ? 0.0
                       : static_cast<double>(aborts) /
                             static_cast<double>(starts);
  }
  std::uint64_t hw_aborts() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : hw_aborts_by_cause) t += c;
    return t;
  }
  void add(const TxStats& o) {
    starts += o.starts;
    commits += o.commits;
    aborts += o.aborts;
    for (int i = 0; i < kNumAbortCauses; ++i) {
      aborts_by_cause[i] += o.aborts_by_cause[i];
    }
    true_conflict_aborts += o.true_conflict_aborts;
    false_conflict_aborts += o.false_conflict_aborts;
    extensions += o.extensions;
    tx_mallocs += o.tx_mallocs;
    tx_frees += o.tx_frees;
    alloc_cache_hits += o.alloc_cache_hits;
    reads += o.reads;
    writes += o.writes;
    hw_starts += o.hw_starts;
    hw_commits += o.hw_commits;
    for (int i = 0; i < 4; ++i) {
      hw_aborts_by_cause[i] += o.hw_aborts_by_cause[i];
    }
    fallbacks += o.fallbacks;
    oom_nulls += o.oom_nulls;
    irrevocable_entries += o.irrevocable_entries;
    irrevocable_commits += o.irrevocable_commits;
    backoff_waits += o.backoff_waits;
    backoff_cycles += o.backoff_cycles;
    for (int i = 0; i < kNumAbortCauses; ++i) {
      if (o.max_consec_aborts_by_cause[i] > max_consec_aborts_by_cause[i]) {
        max_consec_aborts_by_cause[i] = o.max_consec_aborts_by_cause[i];
      }
    }
  }

  bool operator==(const TxStats&) const = default;
};

class Stm;
class Tx;

// Publishes the transaction counters into the unified metrics registry
// under `prefix` ("stm.commits", "stm.aborts.read_locked", ...).
void publish_metrics(const TxStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix = "stm.");

// The pending-abort record of a doomed attempt (see Tx::conflict): why it
// was doomed, and where. `cause` is the software-path cause; `hw_cause` the
// hardware-path one (hybrid mode), kExplicit for software causes raised on
// the hardware path (restart, OOM). `addr` is the faulting address when the
// conflict was detected at a specific barrier (read/write lock collisions),
// 0 for validation failures and explicit restarts. At a lock collision on
// the sim engine, `conflict` says whether the lock's owner had written
// `addr`'s word, and `owner_addr` is the word whose write acquired the lock
// (Tx::lock_conflict); the rollback tallies both.
struct TxAbortSignal {
  AbortCause cause = AbortCause::kValidation;
  HwAbortCause hw_cause = HwAbortCause::kExplicit;
  obs::Conflict conflict = obs::Conflict::kUnclassified;
  std::uintptr_t addr = 0;
  std::uintptr_t owner_addr = 0;
};

namespace detail {

// A versioned lock word. Unlocked: (version << 1). Locked: (Tx* | 1).
// All-zero bytes read "unlocked, version 0", so an ORT carved from fresh
// pages needs no construction pass (sim::make_region_array); every access
// goes through std::atomic_ref.
using VLock = std::uint64_t;
static_assert(alignof(VLock) >= std::atomic_ref<VLock>::required_alignment);

struct WriteEntry {
  std::uintptr_t addr;  // 8-byte-aligned word address
  std::uint64_t value;  // buffered bytes, positioned per `mask`
  std::uint64_t mask;   // which bytes of the word this entry covers
  VLock* lock;
  std::uint64_t prev;   // lock word to restore on abort (acquiring entry)
  bool acquired;        // true on the entry that acquired `lock`
};

struct ReadEntry {
  VLock* lock;
  std::uint64_t version;
};

// Thread-local cache of transactional objects (the Section 6.2
// optimization): objects released by aborts or committed frees are kept in
// per-size bins for reuse by later transactional allocations.
class TxObjectCache {
 public:
  static constexpr std::size_t kMaxObjectSize = 1024;
  static constexpr std::size_t kNumBins = kMaxObjectSize / 8;
  static constexpr std::uint32_t kBinCap = 1024;

  // Returns a cached object that fits `size`, or nullptr.
  void* take(std::size_t size);
  // Offers an object whose usable capacity is `capacity`; returns false if
  // the cache is full or the object does not fit a bin (caller frees it).
  bool offer(void* p, std::size_t capacity);
  // Releases everything to `a` (used when tearing the runtime down).
  void drain(alloc::Allocator& a);

 private:
  struct Node {
    Node* next;
  };
  static int bin_for_request(std::size_t size);
  static int bin_for_capacity(std::size_t capacity);

  Node* bins_[kNumBins] = {};
  std::uint32_t counts_[kNumBins] = {};
};

// An attempt's checkpoint and the jump back to it. The builtin pair saves
// only the frame and stack pointers and the resume address, all a jump
// within one thread needs. ThreadSanitizer sees only the library pair: a
// builtin jump skips frames behind its back, its shadow call stack grows
// with every abort, and it dies. Its builds use the library pair.
//
// AcrossCheckpoint<T> is the type of a local that atomically keeps across
// its checkpoint. None is changed between the checkpoint and a jump back,
// but GCC cannot prove that for the library setjmp and warns that each
// might be clobbered (-Wclobbered); volatile keeps them in memory there.
// The builtin pair draws no warning, so other builds keep the plain type.
#if defined(__SANITIZE_THREAD__)
using Checkpoint = std::jmp_buf;
#define TMX_TX_CHECKPOINT(cp) setjmp(cp)
#define TMX_TX_JUMP(cp) std::longjmp((cp), 1)
template <typename T>
using AcrossCheckpoint = volatile T;
#else
using Checkpoint = void* [5];  // the layout __builtin_setjmp requires
#define TMX_TX_CHECKPOINT(cp) __builtin_setjmp(cp)
#define TMX_TX_JUMP(cp) __builtin_longjmp((cp), 1)
template <typename T>
using AcrossCheckpoint = T;
#endif

}  // namespace detail

// A transaction descriptor. One per logical thread, reused across
// transactions; obtained only through Stm::atomically.
//
// Aborts do not unwind. A conflict dooms the attempt (see conflict): from
// then on every out-of-line entry point below returns at once, and the
// inline accessors, which run in the body's own frames, jump back to the
// checkpoint Stm::atomically took before the attempt. A transaction body
// must therefore hold no local with a non-trivial destructor across an
// accessor call: the jump skips destructors (tmx-lint's tx-frame-dtor).
class Tx {
 public:
  // -- Word accessors (addr must be 8-byte aligned) --
  // Once the attempt is doomed, load_word returns 0 and store_word does
  // nothing; the body leaves at its next typed accessor or when it returns.
  std::uint64_t load_word(const void* addr);
  void store_word(void* addr, std::uint64_t value,
                  std::uint64_t mask = ~std::uint64_t{0});

  // -- Typed accessors for trivially copyable T --
  template <typename T>
  T load(const T* addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    read_bytes(addr, &out, sizeof(T));
    leave_if_doomed();
    return out;
  }

  template <typename T>
  void store(T* addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_bytes(addr, &value, sizeof(T));
    leave_if_doomed();
  }

  // -- Transactional memory management --
  // malloc returns nullptr when it dooms the attempt (allocator OOM), and
  // in irrevocable mode on genuine exhaustion.
  void* malloc(std::size_t size);
  void free(void* p);

  // Requests an abort+retry (e.g. for optimistic retry loops in apps).
  // Tallied under its own cause so application-driven restarts are never
  // mistaken for genuine validation failures.
  [[noreturn]] void restart() {
    if (!doomed_) conflict(AbortCause::kExplicit);
    abort_jump();
  }

  // Leaves a doomed attempt for atomically's checkpoint. The typed
  // accessors call it after every barrier; code calling the out-of-line
  // entry points directly (the access policies) calls it likewise.
  void leave_if_doomed() {
    if (TMX_UNLIKELY(doomed_)) abort_jump();
  }

  int tid() const { return tid_; }

  // Descriptors are managed by Stm; construct one only through atomically.
  Tx() = default;

 private:
  friend class Stm;

  void begin();
  void commit();
  void release_deferred_frees();
  void rollback(AbortCause cause, std::uintptr_t addr = 0);
  bool validate();
  bool extend();
  // Dooms the attempt: records why and where in the pending-abort record.
  // The caller returns at once; nothing ticks, yields or probes until the
  // attempt is rolled back.
  void conflict(AbortCause cause, const void* addr = nullptr) {
    pending_ = TxAbortSignal{cause, HwAbortCause::kExplicit,
                             obs::Conflict::kUnclassified,
                             reinterpret_cast<std::uintptr_t>(addr)};
    doomed_ = true;
  }
  // conflict(cause, addr) for a collision with `lock`, held by `owner`.
  // On the sim engine it also classifies the collision from the owner's
  // write set: host-side only, as the owner is parked at a yield.
  void lock_conflict(AbortCause cause, const void* addr, Tx* owner,
                     const detail::VLock* lock);
  // Dooms the attempt, through its mode's abort path, when `addr` has a
  // bit above 46 set, which no user-space address has. Only a zombie gets
  // one: it followed a stale pointer out of a block that a committed free
  // handed back and the guard poisoned. A committed free versions none of
  // the block's stripes, so validation alone cannot stop that read.
  bool doom_if_wild(const void* addr) {
    if (TMX_LIKELY(reinterpret_cast<std::uintptr_t>(addr) >> 47 == 0)) {
      return false;
    }
    if (hw_mode_) {
      hw_abort(HwAbortCause::kConflict);
    } else {
      conflict(AbortCause::kValidation, addr);
    }
    return true;
  }
  // The one jump back to the checkpoint: cold, out of line, and only ever
  // called from the body's frames (the inline accessors and restart), never
  // from inside an out-of-line entry point, so wrappers around those stay
  // balanced.
  [[noreturn, gnu::cold, gnu::noinline]] void abort_jump();

  // Hardware path (hybrid mode).
  void begin_hw();
  void commit_hw();
  void rollback_hw(HwAbortCause cause);
  std::uint64_t load_word_hw(const void* addr);
  void store_word_hw(void* addr, std::uint64_t value, std::uint64_t mask);
  void hw_abort(HwAbortCause cause) {
    pending_.hw_cause = cause;
    doomed_ = true;
  }

  void read_bytes(const void* addr, void* out, std::size_t n);
  void write_bytes(void* addr, const void* in, std::size_t n);
  detail::WriteEntry* find_write(std::uintptr_t word_addr);
  // All write_set_ insertions go through this so the lookup accelerators
  // (filter word + hash index) stay coherent with the vector.
  void push_write(const detail::WriteEntry& e);
  void windex_rebuild(std::size_t capacity);
  void windex_insert(std::uintptr_t word_addr, std::uint32_t idx);

  Stm* stm_ = nullptr;
  int tid_ = 0;
  bool hw_mode_ = false;
  bool doomed_ = false;  // the current attempt must roll back
  // The running atomically's checkpoint (a detail::Checkpoint on its
  // frame), and why the current attempt is doomed.
  std::remove_extent_t<detail::Checkpoint>* checkpoint_ = nullptr;
  TxAbortSignal pending_{};
  std::uint64_t start_ts_ = 0;
  std::uint64_t end_ts_ = 0;
  std::vector<detail::ReadEntry> read_set_;
  std::vector<detail::WriteEntry> write_set_;
  // Write-set lookup accelerators (see Tx::find_write). `write_filter_` is
  // a one-word Bloom-style filter over written word addresses giving O(1)
  // negative lookups; `windex_` is an open-addressing hash table mapping
  // word address -> write_set_ position, built lazily once the write set
  // outgrows a linear-scan-friendly size. Slots are generation-tagged
  // ((gen << 32) | idx+1) so starting a new transaction invalidates the
  // whole table by bumping `windex_gen_` instead of clearing it.
  std::uint64_t write_filter_ = 0;
  std::vector<std::uint64_t> windex_;
  std::uint32_t windex_gen_ = 0;
  std::uint32_t windex_count_ = 0;  // write_set_ prefix present in windex_
  std::vector<std::pair<void*, std::size_t>> tx_allocs_;
  std::vector<void*> tx_frees_;
  detail::TxObjectCache alloc_cache_;
  TxStats stats_;
  Rng backoff_rng_{0xb0ffu};
  // Same-cause abort streak (stats only): length of the current run of
  // aborts sharing one cause, 0 when the last attempt committed.
  std::uint64_t cause_streak_ = 0;
  unsigned consecutive_aborts_ = 0;
  AbortCause last_abort_cause_ = AbortCause::kReadLocked;
  // Serial-irrevocable mode: set while this descriptor holds the global
  // serial token (see Stm::enter_serial). An irrevocable transaction runs
  // alone and cannot abort.
  bool irrevocable_ = false;
};

// The STM runtime: global clock + ORT + per-thread descriptors.
class Stm {
 public:
  explicit Stm(const Config& cfg);
  ~Stm();
  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;

  // Runs `body` as a transaction, retrying per the contention manager until
  // it commits. The allocation-instrumentation region is set to Tx for the
  // duration. Must not be nested.
  //
  // Every attempt starts from a checkpoint on this frame.
  // A doomed attempt comes back to it either by the jump (Tx::abort_jump,
  // from the body's frames) or by returning from the body and the commit,
  // which do nothing once doomed; either way it is rolled back here.
  template <typename F>
  void atomically(F&& body) {
    const int tid = sim::self_tid();  // hoisted: four uses, one TLS read
    Tx& tx = *descriptors_[tid];
    TMX_ASSERT_MSG(!in_tx_[tid]->flag, "transactions cannot be nested");
    alloc::RegionScope scope(alloc::Region::Tx);
    in_tx_[tid]->flag = true;
    tx.stm_ = this;
    tx.tid_ = tid;
    detail::Checkpoint checkpoint;
    tx.checkpoint_ = checkpoint;
    // Per-transaction watchdog: the clock is read once up front only when
    // the budget is armed, so the disabled path costs a single branch.
    const std::uint64_t tx_cycles0 =
        TMX_UNLIKELY(cfg_.tx_cycle_budget != 0) ? sim::now_cycles() : 0;
    detail::AcrossCheckpoint<bool> done = false;
    if (cfg_.htm.enabled) {
      // Hybrid: a few best-effort hardware attempts, then fall back.
      for (detail::AcrossCheckpoint<int> attempt = 0;
           attempt < cfg_.htm.attempts && !done;) {
        // Hardware attempts must also respect a running irrevocable
        // transaction (consecutive_aborts_ is 0 here, so this only blocks —
        // it never escalates).
        if (TMX_UNLIKELY(cfg_.retry_cap != 0)) serial_gate(tx);
        if (TMX_UNLIKELY(tx_hints_)) maintenance_gate(tx);
        tx.begin_hw();
        if (TMX_TX_CHECKPOINT(checkpoint) == 0) {
          body(tx);
          tx.commit_hw();
          done = !tx.doomed_;
        }
        if (!done) tx.rollback_hw(tx.pending_.hw_cause);
        attempt = attempt + 1;  // C++20 deprecates ++ on a volatile
      }
      if (!done) ++tx.stats_.fallbacks;
    }
    while (!done) {
      // Degradation gate (one branch when escalation is disabled): blocks
      // while another thread runs irrevocably, and escalates this
      // transaction once it exceeds the consecutive-abort cap.
      if (TMX_UNLIKELY(cfg_.retry_cap != 0)) serial_gate(tx);
      if (TMX_UNLIKELY(tx_hints_)) maintenance_gate(tx);
      tx.begin();
      if (TMX_TX_CHECKPOINT(checkpoint) == 0) {
        body(tx);
        tx.commit();
        done = !tx.doomed_;
      }
      if (!done) {
        tx.rollback(tx.pending_.cause, tx.pending_.addr);
        if (TMX_UNLIKELY(cfg_.tx_cycle_budget != 0) &&
            sim::now_cycles() - tx_cycles0 > cfg_.tx_cycle_budget) {
          sim::watchdog_trip("transaction", cfg_.tx_cycle_budget,
                             sim::now_cycles() - tx_cycles0);
        }
        contention_wait(tx);
      }
    }
    tx.checkpoint_ = nullptr;
    if (TMX_UNLIKELY(tx.irrevocable_)) {
      exit_serial(tx);
      // An irrevocable transaction can never abort, so the rollback-path
      // watchdog above cannot see it: re-check the budget here, or a stuck
      // escalated transaction would run forever un-watched.
      if (TMX_UNLIKELY(cfg_.tx_cycle_budget != 0) &&
          sim::now_cycles() - tx_cycles0 > cfg_.tx_cycle_budget) {
        sim::watchdog_trip("transaction", cfg_.tx_cycle_budget,
                           sim::now_cycles() - tx_cycles0);
      }
    }
    in_tx_[tid]->flag = false;
  }

  // Non-transactional allocation passthroughs (seq/par regions).
  void* seq_malloc(std::size_t size) { return cfg_.allocator->allocate(size); }
  void seq_free(void* p) { cfg_.allocator->deallocate(p); }

  const Config& config() const { return cfg_; }
  alloc::Allocator& allocator() { return *cfg_.allocator; }

  // Explicit quiescent point for hint-aware allocators (tmx::phase):
  // acquires the serial token from OUTSIDE any transaction, drains every
  // tx window and the per-descriptor allocation caches, and hands the
  // allocator a proven-quiescent window (on_quiescence(true)) for
  // reclamation and compaction. A no-op when the allocator doesn't want
  // hints. Must not be called from inside a transaction.
  void maintenance_quiescence();

  // Aggregated statistics across threads (and per-thread view).
  TxStats stats() const;
  const TxStats& thread_stats(int tid) const;
  void reset_stats();

  // The ORT mapping function (exposed for tests and layout analyses).
  std::size_t ort_index(const void* addr) const {
    return (reinterpret_cast<std::uintptr_t>(addr) >> cfg_.shift) & ort_mask_;
  }
  std::size_t ort_size() const { return ort_mask_ + 1; }

 private:
  friend class Tx;
  friend struct StmTestPeer;  // reads the lock tables (tests only)

  // Versioned lock guarding `addr`. With sharding enabled, home-known
  // addresses use their node's stripe table (ort_index/stripe attribution
  // keeps reporting global-table indices — an accepted approximation in
  // sharded runs); everything else shares the global table.
  detail::VLock* lock_for(const void* addr) {
    if (TMX_UNLIKELY(!ort_shards_.empty())) {
      const int home =
          sim::numa_home_node(reinterpret_cast<std::uintptr_t>(addr));
      if (home >= 0 &&
          static_cast<std::size_t>(home) < ort_shards_.size()) {
        const std::size_t idx =
            (reinterpret_cast<std::uintptr_t>(addr) >> cfg_.shift) &
            shard_mask_;
        return &ort_shards_[static_cast<std::size_t>(home)][idx];
      }
    }
    return &ort_[ort_index(addr)];
  }
  void contention_wait(Tx& tx);

  // Serial-irrevocable machinery (only reachable with cfg_.retry_cap != 0).
  // serial_gate blocks the caller while another thread holds the serial
  // token and escalates it (enter_serial) once consecutive_aborts_ reaches
  // the cap; enter_serial acquires the token and waits for every in-flight
  // transaction to drain; exit_serial releases the token after the
  // irrevocable commit.
  void serial_gate(Tx& tx);
  void enter_serial(Tx& tx);
  void exit_serial(Tx& tx);

  // Holds new transactions back while maintenance_quiescence drains the
  // system. Irrevocable transactions pass: the drain waits on them.
  void maintenance_gate(Tx& tx);

  Config cfg_;
  // Cached allocator->wants_tx_hints(): hint-blind models (all the
  // per-object ones) pay one predictable branch per lifecycle event
  // instead of a virtual call, keeping their schedules bit-identical.
  bool tx_hints_ = false;
  std::size_t ort_mask_;
  // Lock words are probed on every barrier, so they live in the run's
  // address space (see kOrtAlignment in stm.cpp).
  sim::RegionPtr<detail::VLock[]> ort_;
  // Per-node stripe tables (empty unless cfg_.ort_shards > 1), each
  // registered with the NUMA registry as homed on its node.
  std::vector<sim::RegionPtr<detail::VLock[]>> ort_shards_;
  std::size_t shard_mask_ = 0;
  alignas(kCacheLineSize) std::atomic<std::uint64_t> clock_{0};
  struct Flag {
    bool flag = false;
  };
  std::unique_ptr<std::array<Padded<Tx>, kMaxThreads>> descriptor_storage_;
  std::array<Tx*, kMaxThreads> descriptors_;
  std::array<Padded<Flag>, kMaxThreads> in_tx_{};
  // Serial-irrevocable state. `serial_owner_` holds the escalated thread's
  // tid (-1 = free); `tx_window_[t]` is true while thread t is inside a
  // begin..commit/rollback window (the quiescence predicate). Plain flags
  // suffice under the simulator's cooperative scheduling; the Threads
  // engine makes escalation best-effort, like the rest of its accounting.
  std::atomic<int> serial_owner_{-1};
  std::array<Padded<Flag>, kMaxThreads> tx_window_{};
  // Closed by maintenance_quiescence while it drains the system. Checked
  // only when tx_hints_ is set, and never by an escalated irrevocable
  // transaction (which must be allowed to finish for the drain to end).
  std::atomic<bool> maint_gate_{false};
};

}  // namespace tmx::stm
