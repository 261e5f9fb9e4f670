// tmx::fault — the deterministic fault-injection plane.
//
// The paper's analysis only covers the happy path of each allocator model;
// the degenerate regimes (arena exhaustion, repeated aborts, allocator
// failure inside a transaction) are exactly where allocator placement
// matters most in practice. This module injects those regimes on demand:
//
//  * A FaultPlan, opened on the run context from RunSpec::fault (the
//    --fault-* flags), decides — deterministically — when a model malloc
//    returns nullptr, when a PageProvider reservation fails, when a
//    committing transaction suffers an extra spurious abort, and when a
//    free is delayed by a fixed number of virtual cycles. Each run gets
//    fresh decision streams and budgets, so a run's injected schedule
//    never depends on the runs before it in the process.
//
//  * Every decision is a pure function of (plan seed, site, logical thread
//    id, per-thread per-site counter). Under the deterministic simulator
//    the counters evolve identically run to run, so a fixed --fault-seed
//    reproduces the exact same injected-fault schedule — including through
//    record -> replay, because injected OOMs are captured in traces as
//    malloc records with address 0.
//
//  * When no plan is open the entire plane collapses to one predictable
//    branch per hook (`enabled()` tests the run context's fault slot).
//    No virtual time is ticked, no RNG is drawn, no atomics are touched:
//    the golden determinism constants are bit-identical with the plane
//    compiled in but idle.
//
// Layering: fault sits between sim and alloc. It depends only on sim/util/
// obs; alloc and core call into it at their injection sites, and
// FaultyAllocator (fault_alloc.hpp) wraps any model with the malloc-level
// faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/context.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::fault {

// Injection sites. Each site draws from its own per-thread decision stream
// so enabling one fault type never perturbs the schedule of another.
enum class Site : int {
  kMalloc = 0,    // model allocate() returns nullptr (via FaultyAllocator)
  kReserve = 1,   // PageProvider::reserve fails (simulated OS exhaustion)
  kSpurious = 2,  // extra spurious abort at software commit entry
  kDelayFree = 3, // deallocate() held back for delay_free_cycles
  // Corruption sites: performed by GuardedAllocator (the only layer that
  // knows block layout), each scoped so detection is guaranteed — the
  // chaos_soak contract is injected == detected, per site.
  kCorruptTag = 4,       // boundary-tag scribble at free entry
  kCorruptOverflow = 5,  // off-by-N overflow into the tail canary at alloc
  kCorruptReuse = 6,     // write into quarantined (poisoned) memory
};
inline constexpr int kNumSites = 7;

const char* site_name(Site s);

// The plan: what to inject, how often, and within what budget. Rates are
// probabilities in [0, 1]; budgets bound the total number of injections of
// that site across the run (UINT64_MAX = unbounded).
struct FaultPlan {
  std::uint64_t seed = 20150207;

  // kMalloc: model mallocs return nullptr.
  double oom_rate = 0.0;
  std::uint64_t oom_budget = UINT64_MAX;
  bool oom_everywhere = false;  // default: inject only inside transactions

  // kReserve: PageProvider reservations fail. reserve_cap_bytes simulates
  // total OS memory exhaustion: once a provider has handed out this many
  // bytes, every further reservation fails (0 = no cap).
  double reserve_rate = 0.0;
  std::size_t reserve_cap_bytes = 0;

  // kSpurious: probability that a software transaction is aborted once at
  // commit entry even though it would have committed.
  double spurious_abort_rate = 0.0;

  // kDelayFree: a deallocate() is queued and only forwarded once the
  // freeing thread's virtual clock has advanced delay_free_cycles.
  double delay_free_rate = 0.0;
  std::uint64_t delay_free_cycles = 10000;
  std::uint64_t delay_free_budget = UINT64_MAX;

  // kCorruptTag/kCorruptOverflow/kCorruptReuse: heap-corruption injections
  // carried out inside GuardedAllocator, sharing one budget so a chaos run
  // bounds total damage regardless of the site mix.
  double corrupt_tag_rate = 0.0;
  double corrupt_overflow_rate = 0.0;
  double corrupt_reuse_rate = 0.0;
  std::uint64_t corrupt_budget = UINT64_MAX;
};

// Injection counters, one row per site.
struct FaultStats {
  std::uint64_t decisions[kNumSites] = {};  // hook evaluations
  std::uint64_t injected[kNumSites] = {};   // faults actually fired

  bool operator==(const FaultStats&) const = default;
};

// Opens the plane on `ctx` for one run: fresh per-thread decision streams
// seeded from `plan`, zeroed counters and budgets.
void open(sim::RunContext& ctx, const FaultPlan& plan);

// The one-branch guard every injection site checks first.
inline bool enabled() { return sim::context().fault != nullptr; }

// The open plan. Only meaningful while enabled().
const FaultPlan& plan();

// ---- Decision hooks (call only when enabled()) ----
// Each draws the next value from the calling thread's stream for the site
// and compares against the configured rate, honoring budgets.

// Should this model malloc return nullptr? Honors oom_everywhere (by
// default only fires inside Region::Tx) and the per-thread shield.
bool should_fail_alloc();

// Should this PageProvider reservation fail? `reserved_so_far` is the
// provider's running OS-byte total, checked against reserve_cap_bytes.
bool should_fail_reserve(std::size_t request, std::size_t reserved_so_far);

// Should this committing software transaction be spuriously aborted?
bool should_inject_abort();

// Should this free be delayed? (FaultyAllocator asks; the queueing itself
// lives in the wrapper.)
bool should_delay_free();

// Corruption decisions, asked by GuardedAllocator. The caller only asks
// when the block is actually corruptible at that site (in-band tag bytes
// present, a tail canary exists, quarantine is armed), so every `true` is
// one real injection the guard must later detect.
bool should_corrupt_tag();
bool should_corrupt_overflow();
bool should_corrupt_reuse();

// ---- Irrevocable-transaction shield ----
// While a thread runs serial-irrevocable (stm.cpp), injections must not
// fire for it: an irrevocable transaction cannot abort, so injected OOMs
// or spurious aborts would violate the no-aborts guarantee. The STM wraps
// the irrevocable window in set_shield(tid, true/false); both are no-ops
// while the plane is off.
void set_shield(int tid, bool on);

// ---- Reporting ----
// The open plane's counters (all zero while the plane is off).
FaultStats stats();

// Publishes "fault.<site>.decisions" / "fault.<site>.injected" for every
// site with at least one decision, under `prefix`.
void publish_metrics(const FaultStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix = "fault.");

}  // namespace tmx::fault
