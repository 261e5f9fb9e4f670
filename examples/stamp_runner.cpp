// stamp_runner: run any STAMP application port under any allocator,
// engine, thread count and STM configuration.
//
//   ./build/examples/stamp_runner --app yada --alloc glibc --threads 8
//   ./build/examples/stamp_runner --app intruder --alloc tcmalloc
//       --engine threads --scale 2 --txcache 1 --shift 4
#include <cstdio>
#include <vector>

#include "alloc/allocator.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/run_context.hpp"
#include "obs/metrics.hpp"
#include "replay/replayer.hpp"
#include "sim/engine.hpp"
#include "stamp/app.hpp"

namespace {

// --replay-trace: feed a recorded capture through every --alloc model and
// print the side-by-side placement comparison instead of running an app.
int replay_mode(const tmx::harness::Options& opt) {
  using namespace tmx;
  replay::Trace trace;
  const replay::ReadStatus st =
      replay::read_trace(opt.replay_trace(), &trace);
  if (st != replay::ReadStatus::kOk) {
    std::fprintf(stderr, "replay: cannot load %s: %s\n",
                 opt.replay_trace().c_str(), replay::read_status_name(st));
    return 2;
  }
  replay::ReplayConfig cfg;
  cfg.shift = static_cast<unsigned>(opt.get_long("shift", 0));
  cfg.ort_log2 = static_cast<unsigned>(opt.get_long("ort-log2", 0));
  cfg.cache_model = opt.get_long("cache-model", 1) != 0;
  cfg.strict_gaps = opt.has("strict-gaps");
  cfg.seed = opt.seed();
  std::vector<replay::ReplayResult> results;
  {
    // The replays share one run context: it hands the --phase-* config to
    // the phase model, and closing it publishes their sim.* totals.
    const harness::RunContext context({.phase = opt.run_spec().phase});
    results = replay::replay_compare(trace, opt.allocators(), cfg);
  }
  replay::print_comparison(trace, results, stdout);
  bool all_ok = true;
  for (const auto& r : results) {
    if (r.ok) {
      replay::publish_metrics(r, obs::MetricsRegistry::global(),
                              "replay." + r.allocator + ".");
    } else {
      all_ok = false;
    }
  }
  if (!opt.metrics_out().empty()) {
    obs::MetricsRegistry::global().write_json(opt.metrics_out());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tmx;
  harness::Options opt(argc, argv);
  if (harness::handle_list_allocators(opt)) return 0;
  if (!opt.replay_trace().empty()) return replay_mode(opt);
  const std::string app = opt.get("app", "");
  if (app.empty() || opt.has("help") || !stamp::app_exists(app)) {
    std::printf("usage: stamp_runner --app NAME [options]\napps:");
    for (const auto& n : stamp::app_names()) std::printf(" %s", n.c_str());
    std::printf("\noptions: --alloc A --threads N --engine sim|threads "
                "--scale X --seed S\n         --shift K --txcache 0|1 "
                "--cm suicide|backoff --profile\n         --design "
                "wb|wt|ctl --hybrid 0|1\n         --check race,lifetime "
                "--record-trace PATH --replay-trace PATH\n         "
                "--list-allocators --prof --prof-out PREFIX "
                "--prof-sample-cycles N\n         --numa-nodes N "
                "--numa-cores-per-node C --numa-policy "
                "first-touch|interleave|bind[:N]\n         --ort-shards N "
                "--guard --guard-quarantine-epochs N --guard-hard-cap N\n"
                "         --fault-corrupt-tag-rate P "
                "--fault-corrupt-overflow-rate P\n         "
                "--fault-corrupt-reuse-rate P --fault-corrupt-budget N\n");
    return app.empty() || opt.has("help") ? 0 : 2;
  }

  harness::ObsSession obs(opt);

  stamp::StampRun run{opt.run_spec(), app};
  run.threads = static_cast<int>(opt.get_long("threads", 8));
  run.scale = opt.scale();
  // Recording rides on the same instrumenting wrapper profiling uses: it
  // is the only layer that emits kAlloc/kFree events.
  run.instrument = opt.has("profile") || obs.recording();
  obs.set_trace_meta(run.allocator, run.shift, run.ort_log2, run.seed);

  if (run.fault) {
    // Breaching either watchdog must still leave the metrics/trace evidence
    // behind: the trip path exits via std::_Exit, so flush through the
    // session first.
    sim::install_watchdog_flush([&obs] { obs.finish(); });
  }
  if (!harness::planes_compatible(run)) return 2;
  if (run.guard) {
    // A hard-cap trip exits via std::_Exit: flush the obs evidence first,
    // mirroring the watchdog flush hook.
    static harness::ObsSession* s_obs = &obs;
    guard::install_exit_flush([] { s_obs->finish(); });
  }

  const auto out = stamp::run_stamp(run);
  const auto& r = out.result;
  const harness::PlaneOutputs& planes = out.planes;
  if (planes.prof) obs.set_profile(*planes.prof);
  std::printf("app=%s alloc=%s threads=%d shift=%u txcache=%d design=%s "
              "hybrid=%d\n",
              app.c_str(), run.allocator.c_str(), run.threads, run.shift,
              run.tx_alloc_cache ? 1 : 0, opt.get("design", "wb").c_str(),
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
  auto& reg = obs::MetricsRegistry::global();
  stm::publish_metrics(r.stats, reg);
  if (planes.fault) {
    const fault::FaultStats& fs = *planes.fault;
    fault::publish_metrics(fs, reg);
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
  int rc = r.verified ? 0 : 1;
  if (planes.check) {
    const check::Summary& cs = *planes.check;
    check::publish_metrics(cs, reg);
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
    if (cs.hard_count() > 0) {
      check::print_reports(cs, stdout);
      rc = 4;  // dirty run: distinct from verification failure (1)
    }
  }
  if (planes.guard) {
    const guard::Summary& gs = *planes.guard;
    guard::publish_metrics(gs, reg);
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
    if (gs.corruptions() > 0) {
      guard::print_findings(gs, stderr);
      rc = guard::kExitCode;  // corruption: distinct from check (4)
    }
  }
  // finish() explicitly so a failed --metrics-out/--trace write turns into
  // a nonzero exit instead of a stderr line nobody checks.
  obs.finish();
  if (!obs.ok()) return 3;
  return rc;
}
