#include "harness/run_context.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "alloc/instrument.hpp"
#include "obs/metrics.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

namespace {
// Contexts may close on several host threads at once.
std::mutex g_metrics_mu;
obs::AbortTally g_aborts;  // closed contexts' tallies, under g_metrics_mu
// Closed contexts' captures, and the cycle the next record rebases onto;
// under g_metrics_mu.
replay::Trace g_capture;
std::uint64_t g_capture_base = 0;

std::atomic<bool> g_reports[std::size(kReportNeeds)];

bool report_on(Report report) {
  return g_reports[static_cast<int>(report)].load(std::memory_order_relaxed);
}

// Whether runs log their operations: --record-trace writes the capture,
// and --trace exports it.
bool capturing() {
  return report_on(Report::kCapture) || report_on(Report::kTrace);
}

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  std::exit(2);
}

// Appends `log`, which a context opened with `spec` captured, to the
// process's capture (take_capture). Caller holds g_metrics_mu. Cold:
// only a capturing process calls it.
[[gnu::cold, gnu::noinline]] void append_capture(replay::Capture& log,
                                                const RunSpec& spec) {
  std::vector<replay::TraceRecord>& recs = log.records;
  replay::TraceMeta& meta = g_capture.meta;
  meta.allocator = spec.allocator;
  meta.shift = spec.shift;
  meta.ort_log2 = spec.ort_log2;
  meta.seed = spec.seed;
  std::size_t i = 0;
  const auto rebase_until = [&](std::size_t end, bool run) {
    for (; i < end; ++i) {
      replay::TraceRecord& r = recs[i];
      r.cycle = run ? g_capture_base + r.cycle : g_capture_base;
      meta.threads = std::max(meta.threads, r.tid + 1);
    }
  };
  for (const replay::Capture::Run& run : log.runs) {
    std::stable_sort(recs.begin() + static_cast<std::ptrdiff_t>(run.begin),
                     recs.begin() + static_cast<std::ptrdiff_t>(run.end),
                     [](const replay::TraceRecord& x,
                        const replay::TraceRecord& y) {
                       if (x.cycle != y.cycle) return x.cycle < y.cycle;
                       return x.tid < y.tid;
                     });
    rebase_until(run.begin, false);
    rebase_until(run.end, true);
    g_capture_base += run.makespan + 1;
  }
  rebase_until(recs.size(), false);
  if (g_capture.records.empty()) {
    g_capture.records = std::move(recs);
  } else {
    g_capture.records.insert(g_capture.records.end(), recs.begin(),
                             recs.end());
  }
}

}  // namespace

const Constraint kReportNeeds[3] = {
    {Needs::kSimEngine, "--attribution requires --engine sim"},
    {Needs::kSimEngine, "--record-trace requires --engine sim"},
    {Needs::kSimEngine, "--trace requires --engine sim"},
};

void set_report(Report report, bool on) {
  g_reports[static_cast<int>(report)].store(on, std::memory_order_relaxed);
}

RunContext::RunContext(const RunSpec& spec, int threads) : spec_(spec) {
  for (const Plane& p : kPlanes) {
    if (!p.on(spec_)) continue;
    for (const Constraint& c : p.constraints) {
      if (!meets(spec_, c.needs)) refuse(c.refusal);
    }
  }
  for (std::size_t r = 0; r < std::size(kReportNeeds); ++r) {
    const Constraint& c = kReportNeeds[r];
    if (report_on(static_cast<Report>(r)) && !meets(spec_, c.needs)) {
      refuse(c.refusal);
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
  if (capturing()) {
    ctx_.capture = std::make_unique<replay::Capture>();
  }
}

RunContext::~RunContext() {
  allocator_.reset();  // while the context is still current
  std::lock_guard<std::mutex> g(g_metrics_mu);
  if (ctx_.capture != nullptr) append_capture(*ctx_.capture, spec_);
  if (ctx_.sim_runs == 0) return;
  g_aborts.add(ctx_.aborts);
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
  instrument = instrument || capturing();
  for (std::size_t i = 0; i < kPlanes.size(); ++i) {
    if (i == kInstrumentingAt && instrument) {
      a = std::make_unique<alloc::InstrumentingAllocator>(std::move(a));
    }
    a = kPlanes[i].wrap(std::move(a), ctx_, spec_);
  }
  allocator_ = std::move(a);
  return *allocator_;
}

obs::AbortTally take_abort_tally() {
  std::lock_guard<std::mutex> g(g_metrics_mu);
  return std::exchange(g_aborts, {});
}

replay::Trace take_capture() {
  std::lock_guard<std::mutex> g(g_metrics_mu);
  g_capture_base = 0;
  return std::exchange(g_capture, {});
}

PlaneOutputs RunContext::finish() {
  TMX_ASSERT(&sim::context() == &ctx_);
  allocator_.reset();
  PlaneOutputs out;
  for (const Plane& p : kPlanes) p.finish(ctx_, spec_, out);
  return out;
}

}  // namespace tmx::harness
