// Shared state of the tmx::check prongs. Internal to src/check — nothing
// outside the library includes this.
//
// All of it is plain unsynchronized data: the checker is only supported
// under the deterministic fiber simulator, where every logical thread runs
// cooperatively on one OS thread, so hooks never race with each other. None
// of the containers live on the model allocator (they use the host heap),
// so checker bookkeeping cannot recurse into CheckedAllocator or perturb
// the placement the paper's experiments measure.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "check/check.hpp"
#include "util/macros.hpp"

namespace tmx::check::detail {

// A classic dense vector clock. Threads are bounded by kMaxThreads and the
// clock is not on the per-access hot path (per-access state uses epochs),
// so the fixed array keeps join() branch-free and allocation-free.
struct VectorClock {
  std::array<std::uint64_t, kMaxThreads> c{};

  void join(const VectorClock& o) {
    for (int i = 0; i < kMaxThreads; ++i) {
      if (o.c[i] > c[i]) c[i] = o.c[i];
    }
  }
};

// One recorded access to a shadow word. `clk` is the accessor's own clock
// component at access time — the epoch (tid, clk) — so the happens-before
// test against a later accessor u is just clk <= C_u[tid]. `mask` has bit i
// set when byte i of the word was touched: sub-word fields written by
// different threads (e.g. adjacent ints across a chunk boundary) never
// alias into a false race.
struct AccessRec {
  std::uint64_t clk;
  std::uint64_t cycle;    // virtual time, for the report
  const char* site;       // attribution label (file:line or scope)
  std::uint8_t tid;
  std::uint8_t mask;
  bool is_write;
  bool is_tx;             // transactional accesses never race each other
};

// Shadow state of one 8-byte word. Bounded: at most one write record per
// byte (a write supersedes every happened-before record on its bytes) plus
// one read record per (thread, byte).
struct ShadowWord {
  std::vector<AccessRec> recs;
};

// Sense-reversing barriers are reused across phases, so a single
// accumulator VC would let a fast thread's next-phase arrival leak into a
// slow thread's current-phase departure (a lost race). Double-buffering by
// phase parity — per-thread arrival counts give each thread its own phase
// number — keeps the gathers of adjacent phases separate; phase p and p+2
// sharing a buffer is fine because everything from phase p already
// happens-before any p+2 arriver.
struct BarrierState {
  VectorClock gather[2];
  std::array<std::uint32_t, kMaxThreads> arrivals{};
};

// A live heap block, keyed by its start address in State::live.
struct Block {
  std::size_t size = 0;          // usable size (the allocator's answer)
  const char* site = nullptr;    // allocation site label
  int alloc_tid = 0;
  std::uint64_t alloc_cycle = 0;
  // Transactional ownership: the tid whose still-uncommitted transaction
  // allocated the block, -1 once committed/published or for plain allocs.
  int owner_tx = -1;
  bool unpublished = false;
  bool escape_published = false;  // check::publish() was called on it
  // Relocatability verdict (tmx::phase compaction). tx_origin: allocated
  // inside a transaction, so the publication fixpoint applies to it at
  // all. ever_published: some committed store was ever seen placing a
  // pointer into the block — once true, never cleared, because any copy of
  // that pointer may outlive the store.
  bool tx_origin = false;
  bool ever_published = false;
};

// A freed, not-yet-recycled block (erased when the allocator hands the
// range out again).
struct Tombstone {
  std::size_t size = 0;
  const char* alloc_site = nullptr;
  const char* free_site = nullptr;
  int free_tid = 0;
  std::uint64_t free_cycle = 0;
};

// Attribution for a transactionally deferred free: recorded at Tx::free so
// the eventual commit-time deallocation reports the user-level site, not
// the commit internals.
struct PendingFree {
  int tid = 0;
  const char* site = nullptr;
  std::uint64_t cycle = 0;
};

struct State {
  CheckConfig cfg;
  int nthreads = 1;
  // True between the engine's fork and join hooks. Sequential-phase
  // accesses are ordered with everything by the fork/join edges, so the
  // race prong skips them entirely — setup loops touching millions of
  // words would otherwise dominate checker cost for zero findings.
  bool in_parallel = false;
  // Set once any allocation has been observed; until then the lifetime
  // prong cannot distinguish "never allocated" from "allocated before the
  // wrapper existed" and stays quiet about unknown pointers.
  bool alloc_tracking = false;

  std::array<VectorClock, kMaxThreads> vc;
  // The happens-before image of the STM's global version clock: commits
  // release into it (their fetch_add), begins/extends acquire from it
  // (their acquire load).
  VectorClock global_release;
  std::map<const void*, VectorClock> locks;
  std::map<const void*, BarrierState> barriers;
  // Ordered so block recycling can range-erase stale entries.
  std::map<std::uintptr_t, ShadowWord> shadow;

  std::map<std::uintptr_t, Block> live;
  std::map<std::uintptr_t, Tombstone> tombs;
  std::map<std::uintptr_t, PendingFree> pending_free;
  // Phase-compaction moves: old start -> {new start, usable}. A free
  // arriving at the old address is redirected (and the entry consumed);
  // plain accesses to the old range hit the tombstone laid over it.
  std::map<std::uintptr_t, std::pair<std::uintptr_t, std::size_t>>
      relocations;
  std::array<std::vector<std::uintptr_t>, kMaxThreads> tx_pending;

  // Commit-time leak candidates awaiting their verdict. A transaction that
  // privatizes its own allocation through a local variable (STAMP Intruder's
  // completing thread) commits without publishing it, then frees it later in
  // the parallel region — not a leak. The verdict is therefore deferred: a
  // subsequent free acquits the block, and whatever is still suspect when
  // findings are read is reported.
  std::map<std::uintptr_t, Report> leak_suspects;

  Summary found;

  std::array<const char*, kMaxThreads> scoped_site{};
};

// nullptr when no checker is open on the calling thread's run context.
inline State* state() { return sim::context().check.get(); }

// Attribution label for thread `tid`: the innermost ScopedSite, or
// `fallback`, or "?".
const char* site_or(int tid, const char* fallback);

// Appends a finding: always counts, and stores it subject to dedup and the
// report cap.
void emit(Report r);

// Turns the surviving leak suspects into kTxLeak findings (lifetime.cpp).
// Called lazily by every findings accessor.
void flush_leak_suspects(State& s);

std::size_t stripe_of(std::uintptr_t addr);

// Lifetime-map lookups (lifetime.cpp). Return the containing entry or
// nullptr / live.end()-style misses.
Block* find_live(State& s, std::uintptr_t addr, std::uintptr_t* start);
const Tombstone* find_tomb(const State& s, std::uintptr_t addr,
                           std::uintptr_t* start);

// Race-prong internals (race.cpp).
void race_access(int tid, std::uintptr_t addr, std::size_t bytes, bool write,
                 bool is_tx, const char* site);
void race_acquire_global(int tid);
void race_release_global(int tid);
void race_fork(int threads);
void race_join(int threads);
void race_lock_acquired(int tid, const void* lock);
void race_lock_released(int tid, const void* lock);
void race_barrier_arrive(int tid, const void* barrier);
void race_barrier_depart(int tid, const void* barrier);

}  // namespace tmx::check::detail
