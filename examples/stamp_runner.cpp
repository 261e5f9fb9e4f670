// stamp_runner: run any STAMP application port under any allocator,
// engine, thread count and STM configuration.
//
//   ./build/examples/stamp_runner --app yada --alloc glibc --threads 8
//   ./build/examples/stamp_runner --app intruder --alloc tcmalloc
//       --engine threads --scale 2 --txcache 1 --shift 4
#include <cstdio>
#include <string>

#include "alloc/allocator.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/run_context.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "stamp/app.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  std::string apps;
  for (const auto& n : stamp::app_names()) {
    apps += (apps.empty() ? "" : "|") + n;
  }
  const harness::Flag flags[] = {
      {"app", K::kText, apps.c_str(), nullptr, "STAMP application (required)"},
      {"alloc", K::kModel, "NAME", "glibc", "allocator model"},
      {"threads", K::kInt, harness::kThreadsHint, "8", "application threads"},
      {"scale", K::kReal, "X", "1", "workload scale factor"},
      {"profile", K::kBare, nullptr, nullptr, "print the Table 5 profile"},
  };
  const harness::Options opt(
      argc, argv,
      {{"stamp_runner: one STAMP application run:", flags},
       harness::kRunFlags, harness::kReportFlags});
  if (!opt.has("app")) opt.usage_error("--app is required");
  const std::string app = opt.get("app");

  harness::ObsSession obs(opt);

  stamp::StampRun run{opt.run_spec(), app};
  run.allocator = opt.get("alloc");
  run.threads = static_cast<int>(opt.get_long("threads"));
  run.scale = opt.get_double("scale");
  run.instrument = opt.has("profile");

  const auto out = stamp::run_stamp(run);
  const auto& r = out.result;
  const harness::PlaneOutputs& planes = out.planes;
  std::printf("app=%s alloc=%s threads=%d shift=%u txcache=%d design=%s "
              "hybrid=%d\n",
              app.c_str(), run.allocator.c_str(), run.threads, run.shift,
              run.tx_alloc_cache ? 1 : 0, opt.get("design").c_str(),
              run.htm_enabled ? 1 : 0);
  std::printf("verified:  %s (%s)\n", r.verified ? "yes" : "NO",
              r.detail.c_str());
  std::printf("time:      %.6f s (%s)\n", r.seconds,
              run.engine == sim::EngineKind::Sim ? "virtual" : "wall");
  std::printf("commits:   %llu   aborts: %llu (%.1f%%)   extensions: %llu\n",
              static_cast<unsigned long long>(r.stats.commits),
              static_cast<unsigned long long>(r.stats.aborts),
              100.0 * r.stats.abort_ratio(),
              static_cast<unsigned long long>(r.stats.extensions));
  std::printf("tx mallocs: %llu   tx frees: %llu   cache hits: %llu\n",
              static_cast<unsigned long long>(r.stats.tx_mallocs),
              static_cast<unsigned long long>(r.stats.tx_frees),
              static_cast<unsigned long long>(r.stats.alloc_cache_hits));
  if (run.htm_enabled) {
    std::printf("hw commits: %llu   hw aborts: %llu   fallbacks: %llu\n",
                static_cast<unsigned long long>(r.stats.hw_commits),
                static_cast<unsigned long long>(r.stats.hw_aborts()),
                static_cast<unsigned long long>(r.stats.fallbacks));
  }
  if (run.engine == sim::EngineKind::Sim) {
    std::printf("L1 miss:   %.2f%%   false-sharing invalidations: %llu\n",
                100.0 * r.cache.l1_miss_ratio(),
                static_cast<unsigned long long>(r.cache.false_sharing));
  }
  if (run.instrument) {
    std::printf("\nallocation profile (Table 5 format):\n");
    std::printf("%-6s", "region");
    for (int b = 0; b < alloc::kNumSizeBuckets; ++b) {
      std::printf(" %8s", alloc::size_bucket_name(b));
    }
    std::printf(" %10s %10s %12s\n", "#mallocs", "#frees", "bytes");
    for (int reg = 0; reg < alloc::kNumRegions; ++reg) {
      const auto& p = out.profile.regions[reg];
      std::printf("%-6s",
                  alloc::region_name(static_cast<alloc::Region>(reg)));
      for (int b = 0; b < alloc::kNumSizeBuckets; ++b) {
        std::printf(" %8llu",
                    static_cast<unsigned long long>(p.by_bucket[b]));
      }
      std::printf(" %10llu %10llu %12llu\n",
                  static_cast<unsigned long long>(p.mallocs),
                  static_cast<unsigned long long>(p.frees),
                  static_cast<unsigned long long>(p.bytes));
    }
  }
  stm::publish_metrics(r.stats, obs::MetricsRegistry::global());
  if (planes.fault) {
    const fault::FaultStats& fs = *planes.fault;
    std::printf("faults:    oom=%llu reserve=%llu spurious=%llu "
                "delayed-free=%llu   irrevocable entries: %llu\n",
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kMalloc)]),
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kReserve)]),
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kSpurious)]),
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kDelayFree)]),
                static_cast<unsigned long long>(r.stats.irrevocable_entries));
  }
  if (planes.check) {
    const check::Summary& cs = *planes.check;
    std::printf("check:     races=%llu leaks=%llu uaf=%llu double-free=%llu "
                "unpublished=%llu invalid=%llu zombie-reads=%llu\n",
                static_cast<unsigned long long>(
                    cs.count(check::ReportKind::kRace)),
                static_cast<unsigned long long>(
                    cs.count(check::ReportKind::kTxLeak)),
                static_cast<unsigned long long>(
                    cs.count(check::ReportKind::kUseAfterFree)),
                static_cast<unsigned long long>(
                    cs.count(check::ReportKind::kDoubleFree)),
                static_cast<unsigned long long>(
                    cs.count(check::ReportKind::kFreeUnpublished)),
                static_cast<unsigned long long>(
                    cs.count(check::ReportKind::kInvalidFree)),
                static_cast<unsigned long long>(cs.zombie_reads()));
  }
  if (planes.guard) {
    const guard::Summary& gs = *planes.guard;
    std::printf("guard:     canary=%llu tag=%llu poison=%llu double-free=%llu "
                "invalid=%llu   quarantined=%llu released=%llu leaked=%llu "
                "audits=%llu\n",
                static_cast<unsigned long long>(
                    gs.count(guard::FindingKind::kCanarySmash)),
                static_cast<unsigned long long>(
                    gs.count(guard::FindingKind::kTagSmash)),
                static_cast<unsigned long long>(
                    gs.count(guard::FindingKind::kPoisonWrite)),
                static_cast<unsigned long long>(
                    gs.count(guard::FindingKind::kDoubleFree)),
                static_cast<unsigned long long>(
                    gs.count(guard::FindingKind::kInvalidFree)),
                static_cast<unsigned long long>(gs.stats.quarantined),
                static_cast<unsigned long long>(gs.stats.released),
                static_cast<unsigned long long>(gs.stats.leaked),
                static_cast<unsigned long long>(gs.stats.audits));
  }
  obs.report("", planes);
  return obs.finish(r.verified ? 0 : 1);
}
