// The benchmark driver: runs one workload once, in its own process, and
// prints one JSON line with its host timings, its output check and the
// simulated counters a later run of the same build must repeat.
//
//   tmx_perfbench --workload rbtree|hashset_numa|vacation|server_mix
//                 [--seed N]
//   tmx_perfbench_traced  the same, plus per-layer host time; it also runs
//                 the attribution self-tests selftest_yield and
//                 selftest_alloc
//
// Every workload goes through the entry point users run (the set-benchmark
// harness, the server_mix harness or the STAMP runner), so the numbers stand
// for those entry points. The process re-executes itself with address
// randomisation disabled, as `setarch -R` does: the cache model sees raw
// host addresses, so only a pinned layout makes the simulated counters
// repeat from one process to the next.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "harness/server_mix.hpp"
#include "harness/setbench.hpp"
#include "hooks.hpp"
#include "sim/engine.hpp"
#include "stamp/app.hpp"

namespace {

namespace harness = tmx::harness;
namespace sim = tmx::sim;

// Workload seed for --seed 0; --seed N runs kBaseSeed + N.
constexpr std::uint64_t kBaseSeed = 20150207;

// Amounts of work, fixed so that commits_per_s is throughput at a stated
// input size. Inputs are short and many (see run.py): the seed alone moves
// rbtree and hashset_numa throughput by about 30% from input to input, far
// more than a longer input averages out.
constexpr std::size_t kRbtreeOpsPerThread = 250;
constexpr std::size_t kHashsetNumaOpsPerThread = 16;
constexpr double kVacationScale = 4.0;
constexpr std::size_t kServerRequests = 60000;
constexpr std::uint64_t kSelftestIters = 200000;

using Counters = std::vector<std::pair<const char*, std::uint64_t>>;

struct Outcome {
  bool correct = false;
  std::uint64_t ops = 0;  // workload operations attempted
  tmx::stm::TxStats stats{};
  Counters extra;  // workload-specific simulated counters
};

Outcome run_set(const harness::SetBenchConfig& cfg) {
  const harness::SetBenchResult r = harness::run_set_bench(cfg);
  Outcome o;
  o.correct = r.size_consistent;
  o.ops = r.ops;
  o.stats = r.stats;
  return o;
}

// The paper's set microbenchmark (Fig. 4/5): closed loop, 8 clients.
Outcome rbtree(std::uint64_t seed) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kRbTree;
  cfg.allocator = "glibc";
  cfg.threads = 8;
  cfg.cache_model = true;
  cfg.update_pct = 0.60;
  cfg.initial = 4096;
  cfg.key_range = 8192;
  cfg.ops_per_thread = kRbtreeOpsPerThread;
  cfg.seed = seed;
  return run_set(cfg);
}

// 256 fibers on 4 NUMA nodes: the many-fiber scheduler, home-node lookups
// on every L2 miss and the sharded ORT. Closed loop, 256 clients.
Outcome hashset_numa(std::uint64_t seed) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kHashSet;
  cfg.allocator = "glibc";
  cfg.threads = 256;
  cfg.cache_model = true;
  cfg.initial = 4096;
  cfg.key_range = 8192;
  cfg.ops_per_thread = kHashsetNumaOpsPerThread;
  cfg.seed = seed;
  cfg.topology.nodes = 4;
  cfg.numa.policy = tmx::alloc::NumaOptions::Policy::kInterleave;
  cfg.ort_shards = 4;
  return run_set(cfg);
}

// STAMP vacation: transactional allocation with rare aborts. Closed loop,
// 8 clients; self-verifying.
Outcome vacation(std::uint64_t seed) {
  tmx::stamp::StampRun run;
  run.app = "vacation";
  run.allocator = "tcmalloc";
  run.threads = 8;
  run.cache_model = true;
  run.scale = kVacationScale;
  run.seed = seed;
  const tmx::stamp::StampOutcome out = tmx::stamp::run_stamp(run);
  Outcome o;
  o.correct = out.result.verified;
  o.stats = out.result.stats;
  o.ops = o.stats.commits;  // vacation's transaction count is fixed
  return o;
}

// The open-loop request server: request i is due at (i+1)*2000 cycles.
// Cross-thread frees through mailboxes; the cache model is off.
Outcome server_mix(std::uint64_t seed) {
  harness::ServerMixConfig cfg;
  cfg.allocator = "tbb";
  cfg.workers = 8;
  cfg.requests = kServerRequests;
  cfg.arrival_cycles = 2000;
  cfg.cache_model = false;
  cfg.seed = seed;
  // Far above the makespan (about requests * arrival_cycles): a livelock
  // exits with sim::kWatchdogExitCode instead of hanging the run.
  cfg.watchdog_cycles = 100 * kServerRequests * cfg.arrival_cycles;
  const harness::ServerMixResult r = harness::run_server_mix(cfg);
  Outcome o;
  o.ops = cfg.requests;
  o.correct = r.latency.count() == cfg.requests;
  o.stats = r.stats;
  o.extra = {{"server.requests", r.latency.count()},
             {"server.handoffs", r.handoffs},
             {"server.latency_p50_cycles", r.latency.percentile(50.0)},
             {"server.latency_p99_cycles", r.latency.percentile(99.0)}};
  return o;
}

// Attribution self-test: bodies that only yield. Equal ticks make every
// yield a genuine fiber switch, so nearly all host time is scheduler time.
Outcome selftest_yield() {
  sim::RunConfig rc;
  rc.threads = 8;
  rc.cache_model = false;
  sim::run_parallel(rc, [](int) {
    for (std::uint64_t i = 0; i < kSelftestIters; ++i) {
      sim::tick(1);
      sim::yield();
    }
  });
  Outcome o;
  o.correct = true;
  o.ops = 8 * kSelftestIters;
  return o;
}

// Attribution self-test: one fiber that only calls an allocator model.
Outcome selftest_alloc() {
  const std::unique_ptr<tmx::alloc::Allocator> a =
      tmx::alloc::create_allocator("glibc");
  sim::RunConfig rc;
  rc.threads = 1;
  rc.cache_model = false;
  sim::run_parallel(rc, [&a](int) {
    for (std::uint64_t i = 0; i < kSelftestIters; ++i) {
      a->deallocate(a->allocate(16 + 8 * (i % 32)));
    }
  });
  Outcome o;
  o.correct = true;
  o.ops = kSelftestIters;
  return o;
}

// Returns whether address randomisation is off for this process. When it is
// on, turns it off and re-executes; if that fails, runs as is.
bool pin_address_layout(char** argv) {
  const int cur = personality(0xffffffff);
  if (cur == -1) return false;
  if ((cur & ADDR_NO_RANDOMIZE) != 0) return true;
  if (personality(static_cast<unsigned long>(cur) | ADDR_NO_RANDOMIZE) == -1 ||
      (personality(0xffffffff) & ADDR_NO_RANDOMIZE) == 0) {
    return false;
  }
  execv("/proc/self/exe", argv);
  return false;
}

// Peak resident set of this process (VmHWM) in MiB, or -1 if unreadable.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void put(std::string* out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g", key, v);
  *out += buf;
}

void put(std::string* out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  *out += buf;
}

Counters sim_counters(const Outcome& o) {
  const tmx::stm::TxStats& s = o.stats;
  const perfbench::RunCapture& cap = perfbench::run_capture();
  using tmx::stm::AbortCause;
  const auto cause = [&s](AbortCause c) {
    return s.aborts_by_cause[static_cast<int>(c)];
  };
  Counters c = {
      {"stm.starts", s.starts},
      {"stm.commits", s.commits},
      {"stm.aborts", s.aborts},
      {"stm.aborts.read_locked", cause(AbortCause::kReadLocked)},
      {"stm.aborts.write_locked", cause(AbortCause::kWriteLocked)},
      {"stm.aborts.validation", cause(AbortCause::kValidation)},
      {"stm.reads", s.reads},
      {"stm.writes", s.writes},
      {"stm.extensions", s.extensions},
      {"stm.tx_mallocs", s.tx_mallocs},
      {"stm.tx_frees", s.tx_frees},
      {"sched.switches", cap.sched.switches},
      {"sched.fast_resumes", cap.sched.fast_resumes},
      {"sched.heap_ops", cap.sched.heap_ops},
      {"sched.queue_migrations", cap.sched.queue_migrations},
      {"cache.accesses", cap.cache.accesses},
      {"cache.l1_misses", cap.cache.l1_misses},
      {"cache.l2_misses", cap.cache.l2_misses},
      {"cache.invalidations", cap.cache.invalidations},
      {"cache.false_sharing", cap.cache.false_sharing},
      {"numa.local", cap.cache.numa_local},
      {"numa.remote", cap.cache.numa_remote},
      {"sim.makespan_cycles", cap.makespan_cycles},
  };
  c.insert(c.end(), o.extra.begin(), o.extra.end());
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bool aslr_off = pin_address_layout(argv);
  std::string workload;
  std::uint64_t seed = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const std::uint64_t wseed = kBaseSeed + seed;

  const double t0 = perfbench::now_s();
  Outcome o;
  if (workload == "rbtree") {
    o = rbtree(wseed);
  } else if (workload == "hashset_numa") {
    o = hashset_numa(wseed);
  } else if (workload == "vacation") {
    o = vacation(wseed);
  } else if (workload == "server_mix") {
    o = server_mix(wseed);
  } else if (workload == "selftest_yield") {
    o = selftest_yield();
  } else if (workload == "selftest_alloc") {
    o = selftest_alloc();
  } else {
    std::fprintf(stderr,
                 "usage: %s --workload rbtree|hashset_numa|vacation|"
                 "server_mix [--seed N]\n",
                 argv[0]);
    return 2;
  }
  const double total_s = perfbench::now_s() - t0;
  const perfbench::RunCapture& cap = perfbench::run_capture();

  std::string out = "{\"workload\":\"" + workload + "\",";
  put(&out, "seed", wseed);
  out += ",\"aslr_off\":";
  out += aslr_off ? "true" : "false";
  out += ",\"correct\":";
  out += o.correct ? "true" : "false";
  out += ',';
  put(&out, "ops", o.ops);
  out += ',';
  put(&out, "setup_s", cap.first_entry_s - t0);
  out += ',';
  put(&out, "run_s", cap.inside_s);
  out += ',';
  put(&out, "total_s", total_s);
  out += ',';
  put(&out, "peak_rss_mb", peak_rss_mb());
  out += ",\"sim\":{";
  const Counters counters = sim_counters(o);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ',';
    put(&out, counters[i].first, counters[i].second);
  }
  out += '}';
  perfbench::tracer_report(&out, cap.inside_s);
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
