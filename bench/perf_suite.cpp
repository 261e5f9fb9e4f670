// Self-timing microbenchmark harness for the simulator/STM substrate itself.
//
// Unlike the fig*/table* benches (which report *virtual* time to reproduce
// the paper), this suite measures HOST wall-clock time per simulated
// mega-operation, i.e. how fast the reproduction machinery runs on the
// machine executing it. It establishes the repo's perf trajectory: the
// committed BENCH_perf.json at the repo root is the baseline, CI re-runs
// `perf_suite --quick` and fails on a >25% per-scenario regression (the
// tolerance absorbs runner noise). The file is the dev host's recorded
// trajectory and is not refreshed per change; a hot-path change compares
// the parent and the change in interleaved pairs instead.
//
// Scenarios:
//   * sched_stress — yield-only fiber bodies in a fork-join-imbalance
//     shape: a balanced fan-out phase across all fibers (every yield is a
//     genuine switch, stressing the run queue's two leaf-to-root updates
//     and the direct fiber-to-fiber swap), then a serial tail where the
//     last fiber runs alone (every yield takes the fast-resume path). Half
//     the yields land in each phase, mirroring Amdahl-style imbalance in
//     real runs.
//   * list / hashset / rbtree — the paper's synthetic set benchmarks under
//     glibc at 8 simulated threads with the cache model on: the full
//     STM-barrier + ORT + cache-model hot path.
//   * hashset_checked — the hashset scenario with the tmx::check race +
//     lifetime checker installed: prices the checker's host-time overhead
//     (its virtual-time footprint is zero by contract) and guards the
//     shadow-state hot paths against regressions. The checker-off scenarios
//     double as the proof that an idle checker costs nothing measurable.
//   * replay — a synthetic churn trace (built once, outside the timed
//     region) replayed through glibc: the tmx::replay fiber loop plus the
//     allocator model hot paths, with an op per trace record.
//   * server_mix — the open-loop request workload (harness/server_mix.hpp)
//     under glibc with the profiler OFF: STM commits, SpinLock mailbox
//     handoffs and direct allocator churn per request. Guards the hot paths
//     the prof plane hooks into; the idle-hook branch cost is included.
//   * sched_stress_256 — the scheduler stress at 256 fibers: prices the
//     winner tree's two eight-level path updates per switch over 256
//     leaves, plus the per-run fiber-stack setup, at the scale the NUMA
//     work targets.
//   * hashset_numa — the hashset scenario at 256 fibers on a 4-node
//     topology with interleaved page homing and a per-node sharded ORT:
//     the full NUMA path (home-node lookup on every L2 miss, remote-latency
//     charging, sharded lock dispatch) plus 256-way scheduling.
//   * hashset_phase — the hashset scenario backed by tmx::phase: prices
//     the slab bump path, the per-commit epoch hints the STM feeds every
//     hint-aware allocator, and opportunistic whole-phase reclaim at
//     quiescent commit boundaries.
//
// An "op" is one yield (sched_stress) or one completed set operation
// (list/hashset/rbtree). Each scenario runs `--reps` times and keeps the
// best (minimum) time, the standard way to reduce scheduler/frequency noise
// in self-timing harnesses.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "harness/options.hpp"
#include "harness/replay.hpp"
#include "harness/setbench.hpp"
#include "harness/server_mix.hpp"
#include "replay/synth.hpp"
#include "sim/engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ScenarioResult {
  std::string name;
  std::uint64_t ops = 0;     // simulated operations per repetition
  double seconds = 0.0;      // best-of-reps host wall-clock time
  double mops_per_s() const {
    return seconds > 0.0 ? static_cast<double>(ops) / 1e6 / seconds : 0.0;
  }
};

double time_once(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

ScenarioResult run_scenario(const std::string& name, std::uint64_t ops,
                            int reps, const std::function<void()>& body) {
  ScenarioResult r;
  r.name = name;
  r.ops = ops;
  for (int i = 0; i < reps; ++i) {
    const double s = time_once(body);
    if (i == 0 || s < r.seconds) r.seconds = s;
  }
  std::printf("  %-14s %9.0f kops  %8.3f s  %10.2f Mops/s\n", name.c_str(),
              static_cast<double>(ops) / 1e3, r.seconds, r.mops_per_s());
  return r;
}

// The scheduler-stress body: every fiber ticks a flat cost per yield, so
// the fan-out phase is a dense round-robin of genuine switches; fiber 0
// then carries (kTailFactor-1)x extra iterations and finishes alone, so
// the tail is a pure fast-resume stream. With kTailFactor = threads + 1
// the two phases contribute the same number of yields.
constexpr std::uint64_t kTailFactor = 33;

void sched_stress(int threads, std::uint64_t yields_per_fiber) {
  tmx::sim::RunConfig rc;
  rc.kind = tmx::sim::EngineKind::Sim;
  rc.threads = threads;
  rc.cache_model = false;
  tmx::sim::run_parallel(rc, [&](int tid) {
    const std::uint64_t iters =
        tid == 0 ? kTailFactor * yields_per_fiber : yields_per_fiber;
    for (std::uint64_t i = 0; i < iters; ++i) {
      tmx::sim::tick(3);
      tmx::sim::yield();
    }
  });
}

std::uint64_t set_bench(tmx::harness::SetKind kind, std::size_t ops_per_thread,
                        std::size_t initial, bool checked = false) {
  tmx::harness::SetBenchConfig cfg;
  cfg.kind = kind;
  cfg.allocator = "glibc";
  cfg.threads = 8;
  cfg.cache_model = true;
  cfg.initial = initial;
  cfg.key_range = 2 * initial;
  cfg.ops_per_thread = ops_per_thread;
  cfg.seed = 20150207;
  if (checked) cfg.check = tmx::check::CheckConfig{};
  const tmx::harness::SetBenchResult r = tmx::harness::run_set_bench(cfg);
  if (checked && r.planes.check->hard_count() != 0) {
    tmx::check::print_reports(*r.planes.check, stderr);
    std::fprintf(stderr, "perf_suite: %s is not check-clean\n",
                 tmx::harness::set_kind_name(kind));
  }
  return r.ops;
}

// The NUMA-path scenario: 256 fibers on 4 nodes, interleaved page homing,
// per-node ORT shards. Exercises numa_home_node() on every L2 miss and the
// sharded lock dispatch; the engine publishes sim.numa.* for the run.
std::uint64_t hashset_numa(std::size_t ops_per_thread) {
  tmx::harness::SetBenchConfig cfg;
  cfg.kind = tmx::harness::SetKind::kHashSet;
  cfg.allocator = "glibc";
  cfg.threads = 256;
  cfg.cache_model = true;
  cfg.initial = 4096;
  cfg.key_range = 8192;
  cfg.ops_per_thread = ops_per_thread;
  cfg.seed = 20150207;
  cfg.topology.nodes = 4;
  cfg.numa.policy = tmx::alloc::NumaOptions::Policy::kInterleave;
  cfg.ort_shards = 4;
  const tmx::harness::SetBenchResult r = tmx::harness::run_set_bench(cfg);
  return r.ops;
}

// The phase-allocator scenario: the hashset workload with tmx::phase
// backing it. Epochs advance on the STM's commit hints (allocator default
// cadence) and retired phases reclaim opportunistically whenever a commit
// leaves no transaction in flight — the hint-driven hot path end to end.
std::uint64_t hashset_phase(std::size_t ops_per_thread) {
  tmx::harness::SetBenchConfig cfg;
  cfg.kind = tmx::harness::SetKind::kHashSet;
  cfg.allocator = "phase";
  cfg.threads = 8;
  cfg.cache_model = true;
  cfg.initial = 4096;
  cfg.key_range = 8192;
  cfg.ops_per_thread = ops_per_thread;
  cfg.seed = 20150207;
  const tmx::harness::SetBenchResult r = tmx::harness::run_set_bench(cfg);
  return r.ops;
}

void append_kv(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6f", key, v);
  *out += buf;
}

bool write_bench_perf(const std::string& path,
                      const std::vector<ScenarioResult>& rs, bool quick) {
  std::string out = "{\"schema\":\"tmx-bench-perf-v1\",\"quick\":";
  out += quick ? "true" : "false";
  out += ",\"scenarios\":{";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + rs[i].name + "\":{\"ops\":";
    out += std::to_string(rs[i].ops);
    out += ',';
    append_kv(&out, "seconds", rs[i].seconds);
    out += ',';
    append_kv(&out, "mops_per_s", rs[i].mops_per_s());
    out += '}';
  }
  out += "}}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using K = tmx::harness::Flag::Kind;
  constexpr tmx::harness::Flag kFlags[] = {
      {"quick", K::kBare, nullptr, nullptr, "smaller workloads (CI smoke)"},
      {"out", K::kText, "PATH", "BENCH_perf.json", "output JSON"},
      {"reps", K::kInt, "N", "3", "repetitions, best kept"},
  };
  const tmx::harness::Options opts(
      argc, argv, {{"perf_suite: host time per simulated M-op:", kFlags}});
  const bool quick = opts.has("quick");
  const int reps = static_cast<int>(opts.get_long("reps"));
  const std::string out_path = opts.get("out");
  // The workload knobs scale together; Mops/s stays comparable between
  // quick and full runs, which is what the CI guard compares.
  const std::uint64_t scale = quick ? 1 : 4;

  std::printf(
      "== perf_suite ==\nreproduces: substrate self-timing (repo perf "
      "trajectory, not a paper figure)\n(virtual-time simulation; compare "
      "shapes/ratios with the paper, not absolute values)\n\n");
  std::printf("  %-14s %9s  %8s  %10s\n", "scenario", "sim ops", "host",
              "rate");

  std::vector<ScenarioResult> results;

  {
    const int threads = 32;
    const std::uint64_t yields = 12000 * scale;
    const std::uint64_t total_yields =
        (static_cast<std::uint64_t>(threads) - 1 + kTailFactor) * yields;
    results.push_back(run_scenario("sched_stress", total_yields, reps,
                                   [&] { sched_stress(threads, yields); }));
  }
  {
    const std::size_t ops = 64 * scale;
    results.push_back(
        run_scenario("list", 8 * ops, reps, [&] {
          (void)set_bench(tmx::harness::SetKind::kList, ops, 1024);
        }));
  }
  {
    const std::size_t ops = 4000 * scale;
    results.push_back(
        run_scenario("hashset", 8 * ops, reps, [&] {
          (void)set_bench(tmx::harness::SetKind::kHashSet, ops, 4096);
        }));
  }
  {
    const std::size_t ops = 1500 * scale;
    results.push_back(
        run_scenario("rbtree", 8 * ops, reps, [&] {
          (void)set_bench(tmx::harness::SetKind::kRbTree, ops, 4096);
        }));
  }
  {
    const std::size_t ops = 4000 * scale;
    results.push_back(
        run_scenario("hashset_checked", 8 * ops, reps, [&] {
          (void)set_bench(tmx::harness::SetKind::kHashSet, ops, 4096,
                          /*checked=*/true);
        }));
  }
  {
    tmx::replay::SynthConfig sc;
    sc.threads = 8;
    sc.ops_per_thread = 4000 * scale;
    sc.live_per_thread = 256;
    const tmx::replay::Trace trace = tmx::replay::generate_synthetic(sc);
    tmx::harness::ReplayRun run;
    run.trace = &trace;
    results.push_back(
        run_scenario("replay", trace.records.size(), reps, [&] {
          const tmx::replay::ReplayResult r =
              tmx::harness::run_replay(run).result;
          if (!r.ok) std::fprintf(stderr, "replay: %s\n", r.error.c_str());
        }));
  }

  {
    const std::size_t requests = 1500 * scale;
    results.push_back(
        run_scenario("server_mix", requests, reps, [&] {
          tmx::harness::ServerMixConfig cfg;
          cfg.allocator = "glibc";
          cfg.workers = 4;
          cfg.requests = requests;
          cfg.seed = 20150207;
          (void)tmx::harness::run_server_mix(cfg);
        }));
  }

  {
    const int threads = 256;
    const std::uint64_t yields = 1500 * scale;
    const std::uint64_t total_yields =
        (static_cast<std::uint64_t>(threads) - 1 + kTailFactor) * yields;
    results.push_back(run_scenario("sched_stress_256", total_yields, reps,
                                   [&] { sched_stress(threads, yields); }));
  }
  {
    const std::size_t ops = 24 * scale;
    results.push_back(
        run_scenario("hashset_numa", 256 * ops, reps,
                     [&] { (void)hashset_numa(ops); }));
  }
  {
    const std::size_t ops = 4000 * scale;
    results.push_back(
        run_scenario("hashset_phase", 8 * ops, reps,
                     [&] { (void)hashset_phase(ops); }));
  }

  if (!write_bench_perf(out_path, results, quick)) {
    std::fprintf(stderr, "perf_suite: failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
