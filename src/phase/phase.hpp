// tmx::phase — a phase-lifetime allocator that exploits transactional
// quiescence.
//
// The per-object models (glibc, hoard, tbb, tcmalloc, jemalloc) all answer
// the same question: where does THIS block go, given its size? The phase
// allocator answers a different one: WHEN was this block born? Objects
// allocated in the same phase of a transactional workload overwhelmingly
// die together (the temporal-slab thesis: objects don't have lifetimes,
// phases do), so blocks are bump-allocated into 64KB slabs homed to the
// phase epoch that was current when their transaction began, and a whole
// phase's backing pages return to the OS as one unit once the phase is
// retired, empty, and no in-flight transaction could still allocate into
// it.
//
// The STM is what makes the lifetime question answerable at runtime:
//  * epochs advance at commit boundaries (every cfg.commits_per_epoch
//    commits), so phase membership is defined by the transaction order the
//    STM already serializes;
//  * a transaction's blocks are tagged with the epoch snapshot taken at
//    its begin (tx_begin_hint), so a long-running transaction keeps
//    allocating into its own phase and never pins the current one;
//  * reclamation happens at the quiescent points the STM already proves:
//    the active-transaction count hitting zero at a commit boundary, and
//    the serial-irrevocable window, whose entry drains every tx window;
//  * surviving stragglers in retired phases are *compacted* into the
//    current phase during serial-irrevocable windows, using
//    PageProvider::remap for dedicated large-block reservations and
//    per-block relocation for slab blocks. Relocation is gated by the
//    tmx::check lifetime checker's publication verdict (the relocatable
//    hook of sim::CheckHooks): only blocks the fixpoint proved
//    unpublished/privatized may move.
//
// Engine contract: epoch accounting works under both engines, but
// reclamation and compaction (munmap, cross-thread slab detach) run only
// where quiescence is provable — on the deterministic fiber simulator, or
// via force_quiesce() from a caller that guarantees single-threaded
// quiescence (the replayer between phase groups, tests). Under the Threads
// engine the allocator degrades to a no-reclaim slab allocator.
//
// Fiber-safety discipline: the simulator switches fibers only at explicit
// scheduling points (probe, lock acquisition, relax/yield). Every state
// transition in this file is therefore grouped into yield-free spans, with
// cache-model probes and cost ticks charged after the mutation completes —
// so a fiber parked mid-operation always leaves the heap in a state the
// compactor can read consistently.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/page_provider.hpp"
#include "sim/sync.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::phase {

struct PhaseConfig {
  // Commits between epoch advances. Smaller = finer-grained phase
  // reclamation, more slab churn.
  std::uint64_t commits_per_epoch = 256;
  // Slab size (power of two; slabs are reserved slab_bytes-aligned).
  // Requests above slab_bytes/2 get dedicated reservations.
  std::size_t slab_bytes = 64 * 1024;
  // Straggler compaction during proven-quiescent windows:
  //   kOff     — retired phases wait for their stragglers to die;
  //   kChecked — relocate only blocks the lifetime checker's publication
  //              fixpoint proved private (no checker open = no
  //              compaction);
  //   kAll     — relocate every surviving block (trust the workload never
  //              to read through a stale pointer; the replayer and tests
  //              qualify because they free through the relocation-patched
  //              address table).
  enum class Compact { kOff, kChecked, kAll };
  Compact compact = Compact::kOff;
};

struct PhaseStats {
  std::uint64_t epoch = 0;            // current epoch number
  std::uint64_t live_phases = 0;      // phase objects not yet reclaimed
  std::uint64_t phases_opened = 0;
  std::uint64_t phases_reclaimed = 0;
  std::uint64_t slabs_reclaimed = 0;  // slabs munmapped by phase reclaim
  std::uint64_t compactions = 0;      // quiescent windows that compacted
  std::uint64_t blocks_relocated = 0;
  std::uint64_t bytes_relocated = 0;
  std::uint64_t relocation_vetoes = 0;  // checker said no (or none open)
  std::uint64_t remap_refusals = 0;     // fault plane / OS refused a move
};

class PhaseAllocator final : public alloc::Allocator {
 public:
  // Snapshots the run context's config (RunSpec::phase, the --phase-*
  // flags; defaults when the context has none).
  PhaseAllocator();
  explicit PhaseAllocator(const PhaseConfig& cfg);
  ~PhaseAllocator() override;

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;
  std::size_t usable_size(const void* p) const override;
  const alloc::AllocatorTraits& traits() const override { return traits_; }

  bool wants_tx_hints() const override { return true; }
  void tx_begin_hint(int tid) override;
  void tx_commit_hint(int tid) override;
  void tx_abort_hint(int tid) override;
  void on_quiescence(bool serial) override;

  // Explicit quiescence for drivers that KNOW no other mutator is running
  // (the replayer between phase groups, tests, sequential teardown):
  // reclaims retired phases and, when configured, compacts — regardless of
  // engine context. The caller asserts quiescence; nothing is checked.
  void force_quiesce();

  // Observer called on every relocation, before any probe of the new
  // location — address-table drivers (the replayer) patch their tables
  // here so subsequent frees target the moved block.
  using RelocationListener = void (*)(void* from, void* to,
                                      std::size_t usable, void* ctx);
  void set_relocation_listener(RelocationListener fn, void* ctx);

  PhaseStats stats() const;
  const PhaseConfig& config() const { return cfg_; }
  std::uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kHeaderSize = 16;
  static constexpr std::uint64_t kNoTx = ~std::uint64_t{0};

 private:
  struct Phase;
  struct Slab;
  struct LargeBlock;

  // 16 bytes before every payload. `owner` is a tagged pointer: a Slab*
  // (kSlabTag) or LargeBlock* (kLargeTag), plus kFreedBit once freed.
  struct BlockHeader {
    std::uintptr_t owner;
    std::uintptr_t usable;
  };
  static constexpr std::uintptr_t kSlabTag = 1;
  static constexpr std::uintptr_t kLargeTag = 2;
  static constexpr std::uintptr_t kFreedBit = 4;
  static constexpr std::uintptr_t kTagMask = 7;
  static constexpr std::size_t kSlabHeaderSize = 64;
  static constexpr std::uint64_t kSlabMagic = 0x70686173656d6167ull;

  struct Tls {
    Slab* slab = nullptr;           // attached bump slab (holds one pin)
    std::uint64_t slab_epoch = 0;   // epoch of the attached slab's phase
    std::uint64_t tx_epoch = kNoTx; // snapshot taken at tx begin
  };

  static BlockHeader* header_of(void* p) {
    return reinterpret_cast<BlockHeader*>(static_cast<char*>(p) -
                                          kHeaderSize);
  }
  static const BlockHeader* header_of(const void* p) {
    return reinterpret_cast<const BlockHeader*>(
        static_cast<const char*>(p) - kHeaderSize);
  }

  void* allocate_slow(Tls& t, std::uint64_t epoch, std::size_t usable);
  void* allocate_large(std::uint64_t epoch, std::size_t size);
  void* bump_from(Slab* s, std::size_t usable);
  Phase* phase_for_epoch_locked(std::uint64_t epoch);
  void detach_locked(Tls& t);
  void recycle_locked(Slab* s);
  void advance_epoch();
  std::uint64_t min_inflight_epoch() const;
  void quiesce(bool serial);
  void reclaim_retired();
  void compact();
  void compact_phase(Phase* ph, std::array<Slab*, alloc::PageProvider::kMaxNodes>& targets);
  bool relocate_block(Phase* ph, Slab* s, BlockHeader* h,
                      std::array<Slab*, alloc::PageProvider::kMaxNodes>& targets);
  bool relocate_large(Phase* ph, LargeBlock* lb);
  Slab* compaction_slab_locked(unsigned node);
  void* resolve_forwarding(void* p, bool consume) const;
  void scrub_forwarding(void* p, std::size_t usable);
  void probe_range(const void* base, std::size_t bytes, bool write);

  alloc::AllocatorTraits traits_;
  alloc::PageProvider pages_;
  PhaseConfig cfg_;

  // Registry lock: phase list, slab lists/free lists, tls attach/detach.
  mutable sim::SpinLock lock_;
  std::vector<Phase*> phases_;  // oldest first
  Phase* current_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint32_t> active_tx_{0};
  std::atomic<std::uint32_t> retired_count_{0};

  std::array<Padded<Tls>, kMaxThreads>* tls_;

  // Forwarding map for relocated blocks: old payload -> {new payload,
  // usable}. Consulted by deallocate/usable_size only after the first
  // compaction (compaction_used_), consumed on free, scrubbed when an
  // allocation reuses a source address.
  mutable sim::SpinLock fwd_lock_;
  mutable std::map<std::uintptr_t, std::pair<std::uintptr_t, std::size_t>>
      fwd_;
  std::atomic<bool> compaction_used_{false};

  RelocationListener listener_ = nullptr;
  void* listener_ctx_ = nullptr;

  std::atomic<std::uint64_t> phases_opened_{0};
  std::atomic<std::uint64_t> phases_reclaimed_{0};
  std::atomic<std::uint64_t> slabs_reclaimed_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> blocks_relocated_{0};
  std::atomic<std::uint64_t> bytes_relocated_{0};
  std::atomic<std::uint64_t> relocation_vetoes_{0};
  std::atomic<std::uint64_t> remap_refusals_{0};
};

// Publishes alloc.phase.* metrics (epoch, phases, relocations) into the
// unified metrics registry.
void publish_metrics(const PhaseStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix = "alloc.phase.");

}  // namespace tmx::phase
