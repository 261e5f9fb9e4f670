// tmx::check — deterministic transactional race and lifetime checking.
//
// The paper's effects (false aborts, allocator-induced conflicts) are only
// meaningful if the workloads are transactionally *correct*: a naked
// non-transactional store racing a transaction, or an in-transaction
// allocation leaked on commit, silently corrupts every downstream figure.
// This module verifies that discipline at runtime, driven by the
// deterministic simulator so every finding is reproducible bit-for-bit:
//
//  * Race prong — a vector-clock happens-before detector. Each logical
//    thread carries a clock that advances on release operations;
//    synchronization edges mirror exactly what this runtime provides
//    (DESIGN.md "The happens-before model"): STM commit release-to-begin /
//    snapshot-extension acquire via the global version clock, allocator
//    SpinLock release->acquire, Barrier arrive->depart, and run fork/join.
//    Accesses come from the STM read/write barriers (core/stm.cpp) and
//    from TMX_NAKED_ACCESS hooks on non-transactional loads/stores in
//    src/structs/ and src/stamp/. Shadow state is per 8-byte word with
//    byte masks, so adjacent fields written by different threads do not
//    alias into false races.
//
//  * Lifetime prong — tracks every block through malloc/free/commit/abort:
//    transactional allocations leaked on commit (never freed, never
//    published by a committed store), accesses to freed memory (split into
//    hard use-after-free and benign-by-design zombie reads by doomed
//    transactions — see DESIGN.md), double frees across commit/abort/retry,
//    and frees of another transaction's unpublished allocation. Complete
//    coverage requires routing the backing allocator through
//    CheckedAllocator (check_alloc.hpp); the run context does this whenever
//    RunSpec::check is set (--check).
//
// Each run opens its own checker on its run context (sim/context.hpp), so
// shadow state and findings never leak from one run into the next; the
// harness returns the run's Summary in its result.
//
// Overhead contract (mirrors tmx::fault): with no checker open every hook
// is one predictable branch on the run context's check slot — no virtual
// time is ticked, no map is touched, and the golden determinism constants
// are unchanged. The checker itself never calls tick()/yield()/probe(), so even
// a checker-ON run keeps the exact schedule and cycle counts of a
// checker-OFF run; only host time changes.
//
// Layering: check sits beside fault, between sim and the higher layers. It
// depends on sim/obs/util only; core, structs, stamp and the harness call
// into it. The engine and tmx::phase reach back through the function
// pointers the checker puts in the run context (sim::CheckHooks), never by
// symbol.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/context.hpp"
#include "util/macros.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::check {

struct CheckConfig {
  bool race = true;
  bool lifetime = true;
  // ORT mapping used to attribute findings to stripes (must match the
  // stm::Config of the checked run).
  unsigned shift = 5;
  unsigned ort_log2 = 20;
  // Reports kept verbatim; counters keep counting past the cap.
  std::size_t max_reports = 64;

  bool any() const { return race || lifetime; }
};

// Finding taxonomy. kZombieRead is informational: an optimistic read of
// freed memory by a transaction that is already doomed (its read set no
// longer validates) is inherent to lazy-validation STMs and aborts before
// the value can be committed; it is counted and printable but does not make
// a run "dirty". Everything else is a hard finding.
enum class ReportKind : int {
  kRace = 0,          // unsynchronized conflicting access (>= one naked)
  kTxLeak = 1,        // malloc in tx, neither freed nor published at commit
  kUseAfterFree = 2,  // access to freed memory by a still-valid context
  kDoubleFree = 3,    // free of an already-freed block
  kFreeUnpublished = 4,  // free of another in-flight tx's allocation
  kInvalidFree = 5,   // free of an address never seen allocated
  kZombieRead = 6,    // doomed-transaction read of freed memory (benign)
};
inline constexpr int kNumReportKinds = 7;

const char* report_kind_name(ReportKind k);

struct Report {
  ReportKind kind;
  int tid = 0;                  // thread that triggered the finding
  std::uint64_t cycle = 0;      // virtual cycle at detection
  std::uintptr_t addr = 0;      // faulting address
  std::size_t stripe = 0;       // ORT stripe of `addr` under CheckConfig
  std::string site;             // detection site (file:line or scoped label)
  int other_tid = -1;           // conflicting/prior party (-1 = none)
  std::uint64_t other_cycle = 0;
  std::string other_site;
  std::string detail;           // one-line human-readable explanation

  bool operator==(const Report&) const = default;
};

// What one run's checker found: every finding counted per kind, the
// distinct ones kept verbatim.
struct Summary {
  std::vector<Report> reports;  // one per (kind, site, other site), capped
  std::uint64_t counts[kNumReportKinds] = {};

  std::uint64_t count(ReportKind k) const {
    return counts[static_cast<int>(k)];
  }
  // Hard findings only (everything except kZombieRead): the "check-clean"
  // predicate used by harness exit codes and the CI gate.
  std::uint64_t hard_count() const;
  std::uint64_t zombie_reads() const { return count(ReportKind::kZombieRead); }

  bool operator==(const Summary&) const = default;
};

// Opens the checker on `ctx` for one run (nothing when `cfg` enables no
// prong) and points the context's sim::CheckHooks at it: fork/join always,
// lock and barrier edges for the race prong, the phase-compaction gate for
// the lifetime prong. Only supported under the deterministic Sim engine;
// the checker state is not synchronized for real threads.
void open(sim::RunContext& ctx, const CheckConfig& cfg);

// The one-branch guard every hook checks first.
inline bool enabled() { return sim::context().check != nullptr; }

// The open checker's findings so far (empty while the checker is off).
// Commit-time leak suspects still unfreed are settled into findings first.
const Summary& summary();

void print_reports(const Summary& s, std::FILE* out);

// Publishes "check.races", "check.leaks", "check.use_after_free",
// "check.double_frees", "check.free_unpublished", "check.invalid_frees",
// "check.zombie_reads" and "check.reports" under `prefix`.
void publish_metrics(const Summary& s, obs::MetricsRegistry& reg,
                     const std::string& prefix = "check.");

// ---- Site labels ----
// Thread-local label attributing subsequent hook events (allocations,
// frees, tx accesses) on this thread; nests. String must outlive the scope
// (string literals).
const char* current_site();

class ScopedSite {
 public:
  explicit ScopedSite(const char* site);
  ~ScopedSite();
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  const char* saved_;
};

// ---- Dynamic hooks ----
// Naked (non-transactional) load/store of [addr, addr+bytes). Checked
// against the happens-before state (race prong) and the freed-block table
// (lifetime prong). Use TMX_NAKED_ACCESS for automatic file:line sites.
void naked_access(const void* addr, std::size_t bytes, bool write,
                  const char* site);

// Naked allocation lifecycle (SeqAccess and friends). Registration of the
// block itself happens in CheckedAllocator; these add site attribution and
// the unpublished-free check.
void on_naked_malloc(void* p, std::size_t size, const char* site);
void on_naked_free(void* p, const char* site);

// STM hooks (called from core/stm.cpp, each behind a one-branch guard).
void on_tx_begin(int tid);
void on_tx_extend(int tid);
// A transactional load/store of [addr, addr+bytes) at encounter time.
// Reads feed the race detector immediately; buffered writes are deferred to
// commit (memory mutates only then), while `write_in_place` marks designs
// that mutate memory at encounter (write-through) and records the write
// now. Returns true when the range touches freed memory — the caller then
// classifies zombie vs hard via on_tx_freed_access (it alone can cheaply
// validate the read set).
bool on_tx_access(int tid, const void* addr, std::size_t bytes, bool write,
                  bool write_in_place);
void on_tx_freed_access(int tid, const void* addr, bool write, bool doomed);
void on_tx_malloc(int tid, void* p, std::size_t size);
void on_tx_free(int tid, void* p);
// One committed write-set entry: the 8-byte-aligned word address, a 1-bit-
// per-byte mask of which bytes the transaction wrote, and the word's full
// post-commit memory content (the publication analysis scans it for
// pointers into the transaction's own allocations).
struct CommittedWrite {
  std::uintptr_t word;
  std::uint8_t mask;    // bit i = byte i of the word was written
  std::uint64_t value;  // full word content after write-back
};
// Commit, called after write-back while the stripe locks are still held and
// before the deferred frees execute. allocs/frees mirror the transaction's
// tx_allocs_/tx_frees_. `bumped_clock` is true when the commit incremented
// the global version clock (i.e. the write set was non-empty) — only then
// does the commit release into the global happens-before clock.
void on_tx_commit(int tid, const CommittedWrite* writes, std::size_t nwrites,
                  const std::pair<void*, std::size_t>* allocs,
                  std::size_t nallocs, void* const* frees, std::size_t nfrees,
                  bool bumped_clock);
void on_tx_abort(int tid, const std::pair<void*, std::size_t>* allocs,
                 std::size_t nallocs);

// Out-of-band publication escape hatch: tells the leak analysis that `p`
// escapes the transaction by means the write set cannot see (e.g. handed to
// a side channel). Call from inside the transaction.
void publish(const void* p);

// Allocator-level hooks (CheckedAllocator). on_block_free returns false
// when the block must NOT be forwarded to the underlying allocator (double
// or invalid free): the wrapper swallows the call so a reported bug does
// not also corrupt the host heap, letting buggy test programs run to
// completion.
void on_block_alloc(void* p, std::size_t usable);
bool on_block_free(void* p);

// Phase-compaction gating (the relocatable/on_relocated check hooks).
// relocatable: the block starting at `payload` was proven private by the
// publication analysis — transactional origin, owner committed, and no
// committed store or explicit publish() ever let a pointer to it escape.
// on_block_relocate: the block moved; its live entry is re-keyed, the
// source range is tombstoned (stale touches become use-after-free
// findings), and frees through the old pointer are redirected.
bool relocatable(const void* payload);
void on_block_relocate(void* from, void* to, std::size_t usable);

}  // namespace tmx::check

// Naked-access annotation for non-transactional loads/stores of shared data
// in parallel phases. One predictable branch when no checker is open;
// free of any side effect on virtual time either way.
#define TMX_CHECK_STR2(x) #x
#define TMX_CHECK_STR(x) TMX_CHECK_STR2(x)
#define TMX_NAKED_ACCESS(addr, bytes, is_write)                            \
  do {                                                                     \
    if (TMX_UNLIKELY(::tmx::check::enabled())) {                           \
      ::tmx::check::naked_access((addr), (bytes), (is_write),              \
                                 __FILE__ ":" TMX_CHECK_STR(__LINE__));    \
    }                                                                      \
  } while (0)
