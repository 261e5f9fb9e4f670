#include "harness/run_context.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "alloc/instrument.hpp"
#include "obs/metrics.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

namespace {
// Contexts may close on several host threads at once.
std::mutex g_metrics_mu;

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  std::exit(2);
}

}  // namespace

RunContext::RunContext(const RunSpec& spec, int threads) : spec_(spec) {
  for (const Plane& p : kPlanes) {
    if (!p.on(spec_)) continue;
    for (const Constraint& c : p.constraints) {
      if (!meets(spec_, c.needs)) refuse(c.refusal);
    }
  }
  const unsigned nodes = std::max(1u, spec_.topology.nodes);
  if (spec_.numa.policy == alloc::NumaOptions::Policy::kBind &&
      spec_.numa.bind_node >= nodes) {
    refuse("--numa-policy bind:" + std::to_string(spec_.numa.bind_node) +
           " requires a node below --numa-nodes " + std::to_string(nodes));
  }
  ctx_.numa.configure(spec_.topology, static_cast<unsigned>(threads));
  ctx_.numa_policy = spec_.numa;
  ctx_.phase = &spec_.phase;
  for (const Plane& p : kPlanes) {
    if (p.on(spec_)) p.open(ctx_, spec_);
  }
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
  for (std::size_t i = 0; i < kPlanes.size(); ++i) {
    if (i == kInstrumentingAt && instrument) {
      a = std::make_unique<alloc::InstrumentingAllocator>(std::move(a));
    }
    a = kPlanes[i].wrap(std::move(a), ctx_, spec_);
  }
  allocator_ = std::move(a);
  return *allocator_;
}

PlaneOutputs RunContext::finish() {
  TMX_ASSERT(&sim::context() == &ctx_);
  allocator_.reset();
  PlaneOutputs out;
  for (const Plane& p : kPlanes) p.finish(ctx_, spec_, out);
  return out;
}

}  // namespace tmx::harness
