// server_mix: open-loop server-style workload driving the tmx::prof plane —
// request tail latency, cross-thread frees and RSS/fragmentation drift per
// allocator (EXPERIMENTS.md: "tail latency & RSS drift per allocator").
//
//   ./build/bench/server_mix --alloc glibc,hoard,tbb,tcmalloc --workers 4
//   ./build/bench/server_mix --quick --prof --prof-out out/mix
//
// All profiler output goes to files/stderr; stdout is byte-identical with
// and without --prof (the CI prof-smoke step diffs the two), which is the
// zero-perturbation contract made observable. Run the comparison with
// --cache-model 0: with the cache model on, simulated latencies depend on
// where host-heap metadata lands, so inserting any wrapper (profiler,
// checker, tracer alike) shifts them — the same exact-address caveat
// trace_replay --selfcheck documents.
#include <cstdio>
#include <string>

#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/server_mix.hpp"
#include "obs/metrics.hpp"
#include "phase/phase.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  harness::Options opt(argc, argv);
  if (harness::handle_list_allocators(opt)) return 0;
  if (opt.has("help")) {
    opt.print_help(
        "usage: server_mix [options]\n"
        "server_mix options:\n"
        "  --quick                smaller run: 4 workers, 256 requests\n"
        "  --workers N            server worker threads (default 8)\n"
        "  --requests N           requests in the open-loop arrival stream\n"
        "                         (default 4096)\n"
        "  --arrival CYCLES       virtual cycles between arrivals (default "
        "2000)\n"
        "  --allocs-per-req N     allocations per request (default 6)\n"
        "  --retain F             fraction of requests leaking until "
        "teardown\n"
        "                         (default 0.04)\n"
        "  --mu M --sigma S       ln-space size location and scale\n"
        "                         (default 6.0, 1.0)\n"
        "  --phase-maintenance-every N  worker 0 calls the quiescent\n"
        "                         maintenance point every N requests\n"
        "                         (default 0 = never)");
    return 0;
  }

  const bool quick = opt.has("quick");
  harness::ServerMixConfig base{opt.run_spec()};
  base.workers = static_cast<int>(opt.get_long("workers", quick ? 4 : 8));
  base.requests = static_cast<std::size_t>(
      opt.get_long("requests", quick ? 256 : 4096));
  base.arrival_cycles =
      static_cast<std::uint64_t>(opt.get_long("arrival", 2000));
  base.allocs_per_request =
      static_cast<std::size_t>(opt.get_long("allocs-per-req", 6));
  base.retain_fraction = opt.get_double("retain", 0.04);
  base.size_ln_mu = opt.get_double("mu", 6.0);
  base.size_ln_sigma = opt.get_double("sigma", 1.0);
  base.phase_maintenance_every =
      static_cast<std::size_t>(opt.get_long("phase-maintenance-every", 0));

  if (!harness::planes_compatible(base)) return 2;
  harness::ObsSession obs(opt);

  std::printf("server_mix: %d workers, %zu requests, arrival every %llu "
              "cycles, retain %.1f%%\n\n",
              base.workers, base.requests,
              static_cast<unsigned long long>(base.arrival_cycles),
              100.0 * base.retain_fraction);
  std::printf("%-10s %10s %9s %9s %9s %9s %10s %7s %9s %11s %11s %6s\n",
              "allocator", "req/s", "p50", "p95", "p99", "p99.9", "max",
              "abort%", "handoffs", "live_B", "rss_B", "frag");

  auto& reg = obs::MetricsRegistry::global();

  // Each run opens its own planes, so a row is the one its allocator
  // prints alone, wherever it sits in the --alloc list.
  for (const auto& name : opt.allocators()) {
    harness::ServerMixConfig cfg = base;
    cfg.allocator = name;
    const harness::ServerMixResult r = harness::run_server_mix(cfg);
    std::printf(
        "%-10s %10.0f %9llu %9llu %9llu %9llu %10llu %6.1f%% %9llu "
        "%11zu %11zu %6.2f\n",
        name.c_str(), r.throughput(),
        static_cast<unsigned long long>(r.latency.percentile(50)),
        static_cast<unsigned long long>(r.latency.percentile(95)),
        static_cast<unsigned long long>(r.latency.percentile(99)),
        static_cast<unsigned long long>(r.latency.percentile(99.9)),
        static_cast<unsigned long long>(r.latency.max()),
        100.0 * r.stats.abort_ratio(),
        static_cast<unsigned long long>(r.handoffs), r.live_bytes_end,
        r.reserved_bytes_end, r.fragmentation());
    if (r.has_phase) {
      std::printf("  phase: epoch=%llu phases=%llu/%llu reclaimed, "
                  "slabs=%llu, compactions=%llu (moved %llu blocks / %llu B, "
                  "%llu vetoes, %llu refusals)\n",
                  static_cast<unsigned long long>(r.phase.epoch),
                  static_cast<unsigned long long>(r.phase.phases_reclaimed),
                  static_cast<unsigned long long>(r.phase.phases_opened),
                  static_cast<unsigned long long>(r.phase.slabs_reclaimed),
                  static_cast<unsigned long long>(r.phase.compactions),
                  static_cast<unsigned long long>(r.phase.blocks_relocated),
                  static_cast<unsigned long long>(r.phase.bytes_relocated),
                  static_cast<unsigned long long>(r.phase.relocation_vetoes),
                  static_cast<unsigned long long>(r.phase.remap_refusals));
      phase::publish_metrics(r.phase, reg, name + ".alloc.phase.");
    }
    stm::publish_metrics(r.stats, reg, name + ".stm.");
    obs.report(name + ".", r.planes);
  }
  return obs.finish(0);
}
