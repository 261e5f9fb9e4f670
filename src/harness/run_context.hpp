// The run context: the one place a RunSpec becomes a run — its state and
// its allocator stack.
//
// A RunContext owns, for the run's lifetime, everything the layers below
// the harness reach through sim::context() (sim/context.hpp): the NUMA
// registry, shaped by the spec's topology for `threads` logical threads,
// and the placement policy; the phase allocator's config; and each plane
// the spec turns on — fault, check (with its engine and phase hooks),
// guard and prof — with fresh state. Constructing it opens it on the
// calling host thread; destroying it closes it and restores the context
// that was current before. Runs on different host threads open their own
// contexts and share no plane, NUMA or marker state, so nothing one run
// leaves behind reaches the next.
//
// allocator() builds the run's allocator stack. Wrap order, innermost
// first — the one statement of the contract (test_harness pins it):
//
//   model <- Checked <- Guarded <- Faulty <- Instrumenting <- Profiling
//
//  * Checked sits directly on the model: it owns the authoritative
//    live-block and tombstone tables, so it must see exactly the blocks the
//    model hands out and returns, and a double or invalid free it swallows
//    never reaches the model.
//  * Guarded sits directly above the checker: a quarantined free reaches
//    the checker's lifetime tables only when the quarantine releases it, so
//    a zombie read of parked memory is still "live" to the checker.
//  * Faulty sits above both: an injected OOM allocates nothing below it,
//    and a delayed free passes through the guard and the checker only when
//    it is finally forwarded.
//  * Instrumenting sits above the fault wrapper, so the Table 5 profile and
//    a recorded trace see the post-fault results: an injected OOM is a
//    malloc event with address 0, and record -> replay reproduces the
//    injected schedule.
//  * Profiling sits outermost, so a malloc's recorded latency is what the
//    application experienced through every other layer.
//
// Each of check, guard and fault is added exactly when its plane is open;
// Instrumenting when the caller asks; Profiling when the spec turns prof
// on. With no plane on the result is the bare model, so the common path
// pays no forwarding call.
//
// finish() tears the stack down — a GuardedAllocator's final audit and a
// FaultyAllocator's parked frees run then — and returns what the planes
// found, which the harnesses hand back in their results. Closing the
// context adds its simulated runs' sim.sched.* and sim.numa.* totals to
// the process metrics registry.
#pragma once

#include <memory>
#include <optional>

#include "alloc/allocator.hpp"
#include "check/check.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "harness/run_spec.hpp"
#include "prof/prof.hpp"
#include "sim/context.hpp"

namespace tmx::harness {

// What a run's planes leave behind; each is set when the spec turned its
// plane on.
struct PlaneOutputs {
  std::optional<fault::FaultStats> fault;
  std::optional<check::Summary> check;
  std::optional<guard::Summary> guard;
  std::optional<prof::Profile> prof;  // rows labeled with the allocator

  bool operator==(const PlaneOutputs&) const = default;
};

class RunContext {
 public:
  explicit RunContext(const RunSpec& spec, int threads = 1);
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // Builds the allocator stack (once, before the run allocates anything)
  // and opens the prof plane on its outermost layer. `instrument` adds the
  // InstrumentingAllocator.
  alloc::Allocator& allocator(bool instrument);

  // Destroys the allocator stack — whatever uses it must be gone by now —
  // and returns the planes' outputs.
  PlaneOutputs finish();

 private:
  const RunSpec spec_;
  sim::RunContext ctx_;
  sim::ContextScope open_{ctx_};
  std::unique_ptr<alloc::Allocator> allocator_;
};

}  // namespace tmx::harness
