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
// installed; Instrumenting and Profiling when the caller asks. With no
// plane on the result is the bare model, so the common path pays no
// forwarding call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "alloc/allocator.hpp"
#include "alloc/page_provider.hpp"
#include "sim/numa.hpp"

namespace tmx::harness {

struct AllocatorStackSpec {
  std::string allocator;  // registry name
  // NUMA view installed before the model reserves anything: the topology
  // for `threads` logical threads, and the placement policy every page
  // provider snapshots at construction.
  int threads = 1;
  sim::Topology topology{};
  alloc::NumaOptions numa{};
  bool instrument = false;  // add the InstrumentingAllocator
  // Add the ProfilingAllocator and prof::install it as the sampled
  // allocator. Export and prof::uninstall() stay with the caller.
  bool prof = false;
  std::uint64_t prof_sample_cycles = 100'000;
};

std::unique_ptr<alloc::Allocator> build_allocator_stack(
    const AllocatorStackSpec& spec);

}  // namespace tmx::harness
