// chaos_soak: randomized fault + corruption soak proving the guard's
// detection contract (EXPERIMENTS.md: "chaos soak").
//
// Each round draws a workload shape, a fault schedule and a corruption mix
// from one seeded stream, runs the open-loop server_mix under the full
// hardening stack (Faulty(Guarded(model))), and then settles the books:
// every corruption tmx::fault injected must be caught by tmx::guard and
// attributed to the matching finding kind —
//
//     kCorruptTag      -> kTagSmash       (boundary-tag scribble at free)
//     kCorruptOverflow -> kCanarySmash    (off-by-one past requested size)
//     kCorruptReuse    -> kPoisonWrite    (write into quarantined memory)
//
// with zero stray double-free / invalid-free findings. The guard runs with
// hard_cap = 0 (never trip mid-run), so the rounds also prove graceful
// degradation: corrupted blocks are contained (tag restored, block leaked,
// never forwarded to the model) and the run completes normally.
//
// stdout is integer counts and site names only — never raw block addresses,
// which are ASLR-dependent — so two runs at the same seed are byte-identical
// and smoke_chaos_soak can diff them.
//
//   ./build/bench/chaos_soak --quick --seed 7
//   ./build/bench/chaos_soak --rounds 12 --alloc glibc,hoard,tbb,tcmalloc
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/server_mix.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  // chaos_soak draws every run setting from its seed, so it reads no
  // other run flag.
  constexpr harness::Flag kFlags[] = {
      {"alloc", K::kModels, "a,b,...", "glibc,hoard,tbb,tcmalloc",
       "allocators, taken round-robin"},
      {"quick", K::kBare, nullptr, nullptr, "short soak"},
      {"rounds", K::kInt, "N", nullptr, "rounds (default 12; 4 with --quick)"},
      {"requests", K::kInt, "N", nullptr,
       "base requests per round (default 1024; 192 with --quick)"},
      {"seed", K::kInt, "S", "20150207", "seed of every randomized choice"},
      {"cache-model", K::kInt, "0|1", "1", "cache simulator"},
  };
  const harness::Options opt(
      argc, argv,
      {{"chaos_soak: exits 1 unless every injected corruption is detected:",
        kFlags},
       harness::kReportFlags});

  const bool quick = opt.has("quick");
  const int rounds = static_cast<int>(
      opt.has("rounds") ? opt.get_long("rounds") : quick ? 4 : 12);
  const std::vector<std::string> allocs = opt.get_list("alloc");
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed"));
  const bool cache_model = opt.get_long("cache-model") != 0;
  const std::size_t base_requests = static_cast<std::size_t>(
      opt.has("requests") ? opt.get_long("requests") : quick ? 192 : 1024);

  harness::ObsSession obs(opt);

  // One stream drives every randomized choice, so (seed, rounds) fully
  // determines the soak — including the injected-corruption schedule.
  Rng chaos(seed ^ 0xC5A05ull);

  std::printf("chaos_soak: %d rounds, seed %" PRIu64 ", allocators:", rounds,
              seed);
  for (const auto& a : allocs) std::printf(" %s", a.c_str());
  std::printf("\n\n");
  std::printf("%-5s %-10s %3s %5s | %9s %9s %9s | %9s %9s %9s | %6s %6s\n",
              "round", "alloc", "wrk", "reqs", "inj_tag", "inj_ovfl",
              "inj_reuse", "det_tag", "det_ovfl", "det_reuse", "quar",
              "leak");

  int mismatches = 0;
  std::uint64_t total_injected = 0;
  std::uint64_t total_detected = 0;

  for (int r = 0; r < rounds; ++r) {
    const std::string alloc_name = allocs[static_cast<std::size_t>(r) %
                                          allocs.size()];
    harness::ServerMixConfig cfg;
    cfg.allocator = alloc_name;
    cfg.workers = 2 + static_cast<int>(chaos.below(5));       // 2..6
    cfg.requests = base_requests + 32 * chaos.below(4);
    cfg.arrival_cycles = 1000 + 500 * chaos.below(4);
    cfg.allocs_per_request = 4 + chaos.below(5);              // 4..8
    cfg.retain_fraction = 0.02 + 0.01 * static_cast<double>(chaos.below(4));
    cfg.cache_model = cache_model;
    cfg.seed = seed + 1000003ull * static_cast<std::uint64_t>(r + 1);
    // Quiescence cadence: the maintenance calls are what drain the
    // quarantine (and run the heap audit) mid-run rather than at teardown.
    cfg.phase_maintenance_every = 32 + 16 * chaos.below(4);

    guard::GuardConfig gcfg;
    gcfg.quarantine_epochs = 1 + chaos.below(2);              // 1..2
    gcfg.commits_per_epoch = 128u << chaos.below(3);          // 128..512
    gcfg.max_findings = 4096;
    gcfg.hard_cap = 0;  // graceful degradation: never trip mid-run
    cfg.guard = gcfg;

    fault::FaultPlan plan;
    plan.seed = cfg.seed ^ 0xFA17ull;
    // Background chaos alongside the corruption: spurious aborts exercise
    // the retry path, delayed frees shuffle the free schedule the
    // quarantine then defers again.
    plan.spurious_abort_rate = 0.01 * static_cast<double>(chaos.below(3));
    plan.delay_free_rate = 0.01 * static_cast<double>(chaos.below(3));
    plan.delay_free_cycles = 4000;
    plan.corrupt_tag_rate = 0.002 + 0.002 * static_cast<double>(chaos.below(4));
    plan.corrupt_overflow_rate =
        0.002 + 0.002 * static_cast<double>(chaos.below(4));
    plan.corrupt_reuse_rate =
        0.002 + 0.002 * static_cast<double>(chaos.below(4));
    plan.corrupt_budget = 4 + chaos.below(13);                // 4..16
    cfg.fault = plan;

    // Completing at all is the graceful-degradation half.
    const harness::PlaneOutputs res = harness::run_server_mix(cfg).planes;
    const fault::FaultStats& fs = *res.fault;
    const guard::Summary& gs = *res.guard;
    const std::uint64_t inj_tag =
        fs.injected[static_cast<int>(fault::Site::kCorruptTag)];
    const std::uint64_t inj_ovfl =
        fs.injected[static_cast<int>(fault::Site::kCorruptOverflow)];
    const std::uint64_t inj_reuse =
        fs.injected[static_cast<int>(fault::Site::kCorruptReuse)];
    const std::uint64_t det_tag = gs.count(guard::FindingKind::kTagSmash);
    const std::uint64_t det_ovfl = gs.count(guard::FindingKind::kCanarySmash);
    const std::uint64_t det_reuse = gs.count(guard::FindingKind::kPoisonWrite);

    std::printf("%-5d %-10s %3d %5zu | %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                " | %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " | %6" PRIu64
                " %6" PRIu64 "\n",
                r, alloc_name.c_str(), cfg.workers, cfg.requests, inj_tag,
                inj_ovfl, inj_reuse, det_tag, det_ovfl, det_reuse,
                gs.stats.quarantined, gs.stats.leaked);

    const std::uint64_t strays = gs.count(guard::FindingKind::kDoubleFree) +
                                 gs.count(guard::FindingKind::kInvalidFree);
    if (det_tag != inj_tag || det_ovfl != inj_ovfl ||
        det_reuse != inj_reuse || strays != 0) {
      std::printf("  MISMATCH: injected {%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  "} detected {%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  "} strays %" PRIu64 "\n",
                  inj_tag, inj_ovfl, inj_reuse, det_tag, det_ovfl, det_reuse,
                  strays);
      guard::print_findings(gs, stderr);
      ++mismatches;
    }
    total_injected += inj_tag + inj_ovfl + inj_reuse;
    total_detected += det_tag + det_ovfl + det_reuse;

    // The findings are the experiment, not a failure: publish them
    // without report(), which would turn them into exit code 5.
    harness::publish_metrics(res, obs::MetricsRegistry::global(),
                             "chaos.round" + std::to_string(r) + ".");
  }

  std::printf("\nchaos_soak: %d/%d rounds clean, %" PRIu64 " corruptions "
              "injected, %" PRIu64 " detected\n",
              rounds - mismatches, rounds, total_injected, total_detected);
  return obs.finish(mismatches == 0 ? 0 : 1);
}
