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

#include "check/check.hpp"
#include "guard/guard.hpp"
#include "harness/options.hpp"
#include "harness/server_mix.hpp"
#include "obs/metrics.hpp"
#include "phase/phase.hpp"
#include "prof/prof.hpp"

namespace {

using namespace tmx;

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() ||
      text.empty();
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Options opt(argc, argv);
  if (harness::handle_list_allocators(opt)) return 0;
  if (opt.has("help")) {
    std::printf(
        "usage: server_mix [--alloc a,b,...] [--workers N] [--requests N]\n"
        "                  [--arrival CYCLES] [--allocs-per-req N] "
        "[--retain F]\n"
        "                  [--mu M --sigma S] [--quick] [--cache-model 0|1]\n"
        "                  [--seed S] [--prof --prof-out PREFIX "
        "--prof-sample-cycles N]\n"
        "                  [--metrics-out PATH] [--list-allocators]\n"
        "                  [--check race,lifetime] [--phase-compact "
        "off|checked|all]\n"
        "                  [--phase-commits-per-epoch N] [--phase-slab-bytes "
        "B]\n"
        "                  [--phase-maintenance-every N] [--cm "
        "suicide|backoff]\n"
        "                  [--guard --guard-quarantine-epochs N "
        "--guard-hard-cap N]\n"
        "                  [--fault-corrupt-tag-rate P ...] and the shared "
        "run flags\n"
        "                  (--engine, --shift, --txcache, --design, --hybrid, "
        "--numa-*,\n"
        "                  --ort-shards, --stm-retry-cap, --watchdog-*)\n");
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
  const std::string prof_out = base.prof ? opt.prof_out() : "";

  if (!harness::planes_compatible(base)) return 2;

  std::printf("server_mix: %d workers, %zu requests, arrival every %llu "
              "cycles, retain %.1f%%\n\n",
              base.workers, base.requests,
              static_cast<unsigned long long>(base.arrival_cycles),
              100.0 * base.retain_fraction);
  std::printf("%-10s %10s %9s %9s %9s %9s %10s %7s %9s %11s %11s %6s\n",
              "allocator", "req/s", "p50", "p95", "p99", "p99.9", "max",
              "abort%", "handoffs", "live_B", "rss_B", "frag");

  std::string timeseries = prof::timeseries_csv_header();
  std::string sites = prof::sites_csv_header();
  std::string folded;
  std::uint64_t hard_findings = 0;
  std::uint64_t guard_findings = 0;
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
      phase::publish_metrics(r.phase, reg, "alloc.phase." + name + ".");
    }
    if (const auto& cs = r.planes.check) {
      check::publish_metrics(*cs, reg, "check." + name + ".");
      hard_findings += cs->hard_count();
      if (cs->hard_count() > 0) check::print_reports(*cs, stdout);
    }
    if (const auto& gs = r.planes.guard) {
      guard::publish_metrics(*gs, reg, "guard." + name + ".");
      guard_findings += gs->corruptions();
      // Findings carry raw addresses (ASLR-dependent): stderr, so stdout
      // stays byte-stable for the CI diff.
      if (gs->corruptions() > 0) guard::print_findings(*gs, stderr);
    }
    if (const auto& p = r.planes.prof) {
      prof::publish_metrics(*p, reg, "prof." + name + ".");
      timeseries += p->timeseries_csv;
      sites += p->sites_csv;
      folded += p->folded;
    }
  }

  int rc = hard_findings > 0 ? 4 : 0;  // dirty run, distinct from a write
                                       // failure below (3)
  if (guard_findings > 0) rc = guard::kExitCode;  // corruption trumps both
  if (!prof_out.empty()) {
    const struct {
      const char* suffix;
      const std::string* text;
    } outs[] = {{".timeseries.csv", &timeseries},
                {".sites.csv", &sites},
                {".folded", &folded}};
    for (const auto& o : outs) {
      const std::string path = prof_out + o.suffix;
      if (!write_text(path, *o.text)) {
        std::fprintf(stderr, "server_mix: failed to write %s\n", path.c_str());
        rc = 3;
      } else {
        std::fprintf(stderr, "server_mix: wrote %s\n", path.c_str());
      }
    }
  }
  if (!opt.metrics_out().empty() && !reg.write_json(opt.metrics_out())) {
    std::fprintf(stderr, "server_mix: failed to write %s\n",
                 opt.metrics_out().c_str());
    rc = 3;
  }
  return rc;
}
