// The allocator stack every harness runs on, assembled in one place.
//
// build_allocator_stack() configures the NUMA view, creates the registered
// model and wraps it in the opt-in plane wrappers. Wrap order, innermost
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
// Each of check, guard and fault is added exactly when its plane is
// installed; Instrumenting when the caller asks; Profiling when the run
// spec turns the prof plane on. With no plane on the result is the bare
// model, so the common path pays no forwarding call.
#pragma once

#include <memory>

#include "alloc/allocator.hpp"
#include "harness/run_spec.hpp"

namespace tmx::harness {

// Reads three parts of the run spec:
//  * `allocator`, the registry name of the model;
//  * `topology` (for `threads` logical threads) and `numa`, the NUMA view
//    installed before the model reserves anything;
//  * `prof`, which adds the ProfilingAllocator and prof::installs it as the
//    sampled allocator every `prof_sample_cycles`. Export and
//    prof::uninstall() stay with the caller.
// `instrument` adds the InstrumentingAllocator.
std::unique_ptr<alloc::Allocator> build_allocator_stack(const RunSpec& spec,
                                                        int threads,
                                                        bool instrument);

}  // namespace tmx::harness
