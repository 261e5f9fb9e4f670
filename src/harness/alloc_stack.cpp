#include "harness/alloc_stack.hpp"

#include "alloc/instrument.hpp"
#include "check/check_alloc.hpp"
#include "fault/fault.hpp"
#include "fault/fault_alloc.hpp"
#include "guard/guard.hpp"
#include "guard/guard_alloc.hpp"
#include "prof/prof.hpp"
#include "prof/prof_alloc.hpp"
#include "sim/numa.hpp"

namespace tmx::harness {

std::unique_ptr<alloc::Allocator> build_allocator_stack(const RunSpec& spec,
                                                        int threads,
                                                        bool instrument) {
  sim::numa_configure(spec.topology, static_cast<unsigned>(threads));
  alloc::set_default_numa(spec.numa);
  std::unique_ptr<alloc::Allocator> a = alloc::create_allocator(spec.allocator);
  if (check::enabled()) {
    a = std::make_unique<check::CheckedAllocator>(std::move(a));
  }
  if (guard::enabled()) {
    a = std::make_unique<guard::GuardedAllocator>(std::move(a));
  }
  if (fault::enabled()) {
    a = std::make_unique<fault::FaultyAllocator>(std::move(a));
  }
  if (instrument) {
    a = std::make_unique<alloc::InstrumentingAllocator>(std::move(a));
  }
  if (spec.prof) {
    a = std::make_unique<prof::ProfilingAllocator>(std::move(a));
    prof::ProfConfig pcfg;
    pcfg.sample_cycles = spec.prof_sample_cycles;
    pcfg.allocator = a.get();
    prof::install(pcfg);
  }
  return a;
}

}  // namespace tmx::harness
