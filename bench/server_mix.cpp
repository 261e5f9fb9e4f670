// server_mix: open-loop server-style workload driving the tmx::prof plane —
// request tail latency, cross-thread frees and RSS/fragmentation drift per
// allocator (EXPERIMENTS.md: "tail latency & RSS drift per allocator").
//
//   ./build/bench/server_mix --alloc glibc,hoard,tbb,tcmalloc --workers 4
//   ./build/bench/server_mix --quick --prof --prof-out out/mix
//
// All profiler output goes to files/stderr; stdout is byte-identical with
// and without --prof (smoke_prof_onoff diffs the two), which is the
// zero-perturbation contract made observable.
#include <cstdio>
#include <string>

#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/server_mix.hpp"
#include "obs/metrics.hpp"
#include "phase/phase.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  constexpr harness::Flag kFlags[] = {
      {"alloc", K::kModels, "a,b,...", "glibc,hoard,tbb,tcmalloc",
       "allocators, one row each"},
      {"quick", K::kBare, nullptr, nullptr, "smaller run"},
      {"workers", K::kInt, harness::kThreadsHint, nullptr,
       "workers (default 8; 4 with --quick)"},
      {"requests", K::kInt, "N", nullptr,
       "open-loop requests (default 4096; 256 with --quick)"},
      {"arrival", K::kInt, "CYCLES", "2000", "cycles between arrivals"},
      {"allocs-per-req", K::kInt, "N", "6", "allocations per request"},
      {"retain", K::kReal, "F", "0.04", "fraction of requests leaking"},
      {"mu", K::kReal, "M", "6.0", "ln-space size location"},
      {"sigma", K::kReal, "S", "1.0", "ln-space size scale"},
      {"phase-maintenance-every", K::kInt, "N", "0",
       "worker 0's quiescent maintenance cadence (0 = never)"},
  };
  const harness::Options opt(
      argc, argv,
      {{"server_mix: open-loop request server, one row per allocator:", kFlags},
       harness::kRunFlags, harness::kReportFlags});

  const bool quick = opt.has("quick");
  harness::ServerMixConfig base{opt.run_spec()};
  base.workers = static_cast<int>(
      opt.has("workers") ? opt.get_long("workers") : quick ? 4 : 8);
  base.requests = static_cast<std::size_t>(
      opt.has("requests") ? opt.get_long("requests") : quick ? 256 : 4096);
  base.arrival_cycles = static_cast<std::uint64_t>(opt.get_long("arrival"));
  base.allocs_per_request =
      static_cast<std::size_t>(opt.get_long("allocs-per-req"));
  base.retain_fraction = opt.get_double("retain");
  base.size_ln_mu = opt.get_double("mu");
  base.size_ln_sigma = opt.get_double("sigma");
  base.phase_maintenance_every =
      static_cast<std::size_t>(opt.get_long("phase-maintenance-every"));

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
  for (const auto& name : opt.get_list("alloc")) {
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
