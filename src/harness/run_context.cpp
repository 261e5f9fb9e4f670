#include "harness/run_context.hpp"

#include <mutex>

#include "alloc/instrument.hpp"
#include "check/check_alloc.hpp"
#include "fault/fault_alloc.hpp"
#include "guard/guard_alloc.hpp"
#include "obs/metrics.hpp"
#include "prof/prof_alloc.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

namespace {
// Contexts may close on several host threads at once.
std::mutex g_metrics_mu;
}  // namespace

RunContext::RunContext(const RunSpec& spec, int threads) : spec_(spec) {
  ctx_.numa.configure(spec_.topology, static_cast<unsigned>(threads));
  ctx_.numa_policy = spec_.numa;
  ctx_.phase = &spec_.phase;
  if (spec_.fault) fault::open(ctx_, *spec_.fault);
  if (spec_.check) check::open(ctx_, *spec_.check);
  if (spec_.guard) guard::open(ctx_, *spec_.guard);
}

RunContext::~RunContext() {
  allocator_.reset();  // while the context is still current
  if (ctx_.sim_runs == 0) return;
  std::lock_guard<std::mutex> g(g_metrics_mu);
  auto& reg = obs::MetricsRegistry::global();
  reg.add_counter("sim.sched.switches", ctx_.sched.switches);
  reg.add_counter("sim.sched.fast_resumes", ctx_.sched.fast_resumes);
  reg.add_counter("sim.sched.heap_ops", ctx_.sched.heap_ops);
  reg.add_counter("sim.sched.queue_migrations", ctx_.sched.queue_migrations);
  reg.add_counter("sim.sched.batch_advances", ctx_.sched.batch_advances);
  // Published only when nonzero: every probe should hit the address space.
  if (ctx_.probe_unregistered != 0) {
    reg.add_counter("sim.probe.unregistered", ctx_.probe_unregistered);
  }
  if (ctx_.numa_nodes != 0) {
    reg.add_counter("sim.numa.nodes", ctx_.numa_nodes);
    reg.add_counter("sim.numa.local_accesses", ctx_.numa_local);
    reg.add_counter("sim.numa.remote_accesses", ctx_.numa_remote);
  }
}

alloc::Allocator& RunContext::allocator(bool instrument) {
  TMX_ASSERT(allocator_ == nullptr && &sim::context() == &ctx_);
  std::unique_ptr<alloc::Allocator> a = alloc::create_allocator(spec_.allocator);
  if (ctx_.check) a = std::make_unique<check::CheckedAllocator>(std::move(a));
  if (ctx_.guard) a = std::make_unique<guard::GuardedAllocator>(std::move(a));
  if (ctx_.fault) a = std::make_unique<fault::FaultyAllocator>(std::move(a));
  if (instrument) {
    a = std::make_unique<alloc::InstrumentingAllocator>(std::move(a));
  }
  if (spec_.prof) {
    a = std::make_unique<prof::ProfilingAllocator>(std::move(a));
    prof::ProfConfig pcfg;
    pcfg.sample_cycles = spec_.prof_sample_cycles;
    pcfg.allocator = a.get();
    prof::open(ctx_, pcfg);
  }
  allocator_ = std::move(a);
  return *allocator_;
}

PlaneOutputs RunContext::finish() {
  TMX_ASSERT(&sim::context() == &ctx_);
  allocator_.reset();
  PlaneOutputs out;
  if (ctx_.fault) out.fault = fault::stats();
  if (ctx_.check) out.check = check::summary();
  if (ctx_.guard) out.guard = guard::summary();
  if (ctx_.prof) out.prof = prof::profile(spec_.allocator);
  return out;
}

}  // namespace tmx::harness
