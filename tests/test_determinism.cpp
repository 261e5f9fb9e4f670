// Determinism golden tests: the repo's core claim is that the simulator is
// bit-deterministic, and the hot-path optimizations (indexed scheduler with
// fast-resume, indexed STM write-set, cache sharer directory) are required
// to be pure performance work — zero behavioral drift. These tests pin exact
// `cycles`, `commits` and `aborts` values for fixed-seed runs, so any future
// change that perturbs scheduling order, barrier behavior or conflict
// detection fails loudly instead of silently shifting every figure.
//
// Most golden configurations run with the cache model OFF, where the outcome
// depends only on the schedule, the seeds and ORT stripe aliasing. Every
// address a run probes is carved from the run's own address space
// (sim/address_space.hpp), whose base is aligned past every simulated
// index, so cache-on outcomes are offsets-only too and have goldens of
// their own below.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/replay.hpp"
#include "harness/run_context.hpp"
#include "harness/setbench.hpp"
#include "replay/replayer.hpp"
#include "replay/trace_format.hpp"
#include "stamp/app.hpp"

namespace tmx {
namespace {

struct Outcome {
  std::uint64_t cycles = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  bool operator==(const Outcome& o) const {
    return cycles == o.cycles && commits == o.commits && aborts == o.aborts;
  }
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{cycles=" << o.cycles << ", commits=" << o.commits
            << ", aborts=" << o.aborts << "}";
}

Outcome outcome_of(double seconds, const stm::TxStats& stats) {
  Outcome o;
  // RunResult reports seconds = cycles / (2.0 GHz); invert exactly.
  o.cycles = static_cast<std::uint64_t>(std::llround(seconds * 2.0e9));
  o.commits = stats.commits;
  o.aborts = stats.aborts;
  return o;
}

Outcome run_set(const harness::SetBenchConfig& cfg) {
  const harness::SetBenchResult r = harness::run_set_bench(cfg);
  EXPECT_TRUE(r.size_consistent);
  return outcome_of(r.seconds, r.stats);
}

Outcome run_golden(harness::SetKind kind, const std::string& alloc) {
  harness::SetBenchConfig cfg;
  cfg.kind = kind;
  cfg.allocator = alloc;
  cfg.threads = 4;
  cfg.cache_model = false;
  cfg.initial = 512;
  cfg.key_range = 1024;
  cfg.ops_per_thread = 200;
  cfg.seed = 20150207;
  return run_set(cfg);
}

// Golden constants recorded from the pre-optimization scheduler/STM/cache
// code (seed commit), under the exact configuration above. The optimized
// hot paths MUST reproduce them bit-for-bit.
TEST(Determinism, GoldenListAcrossAllocators) {
  EXPECT_EQ(run_golden(harness::SetKind::kList, "glibc"),
            (Outcome{1764310, 800, 131}));
  EXPECT_EQ(run_golden(harness::SetKind::kList, "hoard"),
            (Outcome{2214571, 800, 297}));
  EXPECT_EQ(run_golden(harness::SetKind::kList, "tbb"),
            (Outcome{2175833, 800, 270}));
  EXPECT_EQ(run_golden(harness::SetKind::kList, "tcmalloc"),
            (Outcome{2185014, 800, 296}));
}

TEST(Determinism, GoldenHashSet) {
  EXPECT_EQ(run_golden(harness::SetKind::kHashSet, "glibc"),
            (Outcome{23150, 800, 47}));
}

TEST(Determinism, GoldenRbTree) {
  EXPECT_EQ(run_golden(harness::SetKind::kRbTree, "glibc"),
            (Outcome{84668, 800, 80}));
}

// A cache-on rbtree bench on the tcmalloc model.
harness::SetBenchConfig cache_on_rbtree() {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kRbTree;
  cfg.allocator = "tcmalloc";
  cfg.threads = 4;
  cfg.cache_model = true;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 100;
  cfg.seed = 42;
  return cfg;
}

TEST(Determinism, RepeatableWithCacheModel) {
  const Outcome a = run_set(cache_on_rbtree());
  const Outcome b = run_set(cache_on_rbtree());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.commits, 400u);
}

// Runs `cfg` `frames` calls further down the host stack.
[[gnu::noinline]] Outcome run_deeper(const harness::SetBenchConfig& cfg,
                                     int frames) {
  volatile char pad[512] = {};
  const Outcome o = frames == 0 ? run_set(cfg) : run_deeper(cfg, frames - 1);
  (void)pad[0];  // keeps the frame alive across the call
  return o;
}

// Where the host puts its heap blocks, its mappings and the caller's stack
// frame reaches no simulated address.
TEST(Determinism, CacheOnIndependentOfHostLayout) {
  const Outcome first = run_set(cache_on_rbtree());
  std::vector<std::unique_ptr<char[]>> blocks;
  std::vector<std::pair<void*, std::size_t>> maps;
  for (std::size_t k = 1; k <= 4; ++k) {
    blocks.push_back(std::make_unique<char[]>(k * 4099 + 7));
    const std::size_t len = k * 12288 + 4096;
    void* m = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(m, MAP_FAILED);
    maps.emplace_back(m, len);
  }
  EXPECT_EQ(run_deeper(cache_on_rbtree(), 16), first);
  for (const auto& [m, len] : maps) munmap(m, len);
}

// Cache-on golden constants, recorded when every probed address moved into
// the run's address space: a Figure 5 cell, a Table 4 list cell and
// vacation.
TEST(Determinism, GoldenCacheOnFig05Cell) {
  // Figure 5's tcmalloc cell at shift 5 (the figure itself runs cache-off):
  // thread 0 writes x, thread 1 only reads the 16-byte-distant y.
  harness::RunSpec spec;
  spec.allocator = "tcmalloc";
  harness::RunContext run(spec, 2);
  alloc::Allocator& a = run.allocator(false);
  stm::Stm stm(spec.stm_config(&a));
  auto* x = static_cast<std::uint64_t*>(a.allocate(16));
  auto* y = static_cast<std::uint64_t*>(a.allocate(16));
  *x = *y = 0;
  const sim::RunResult rr = sim::run_parallel(spec.run_config(2), [&](int tid) {
    for (int i = 0; i < 200; ++i) {
      stm.atomically([&](stm::Tx& tx) {
        if (tid == 0) {
          tx.store(x, tx.load(x) + 1);
        } else {
          tx.load(y);
        }
        sim::tick(300);
      });
    }
  });
  EXPECT_EQ(stm.ort_index(x), stm.ort_index(y));
  EXPECT_EQ(outcome_of(rr.seconds, stm.stats()),
            (Outcome{115062, 400, 825}));
  a.deallocate(x);
  a.deallocate(y);
}

TEST(Determinism, GoldenCacheOnTable4ListCell) {
  // Table 4's tcmalloc list cell at 4 threads, --scale 0.25.
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kList;
  cfg.allocator = "tcmalloc";
  cfg.threads = 4;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 12;
  const harness::SetBenchResult r = harness::run_set_bench(cfg);
  EXPECT_TRUE(r.size_consistent);
  EXPECT_EQ(outcome_of(r.seconds, r.stats), (Outcome{73074, 48, 20}));
  EXPECT_EQ(r.cache.l1_misses, 496u);
}

TEST(Determinism, GoldenCacheOnVacation) {
  stamp::StampRun run;
  run.app = "vacation";
  run.allocator = "tcmalloc";
  run.threads = 4;
  run.scale = 0.2;
  const stamp::StampOutcome out = stamp::run_stamp(run);
  EXPECT_TRUE(out.result.verified) << out.result.detail;
  EXPECT_EQ(outcome_of(out.result.seconds, out.result.stats),
            (Outcome{473919, 409, 76}));
}

// The capture of every run `body` opens, as --record-trace takes it.
template <class F>
replay::Trace capture_of(F body) {
  harness::set_report(harness::Report::kCapture, true);
  body();
  harness::set_report(harness::Report::kCapture, false);
  return harness::take_capture();
}

// A capture holds every operation of its run, however many: its census
// equals the run's own commits, aborts, mallocs and frees. kmeans makes
// more than the 65,536 records per thread that a tracer ring of the
// default size holds, and intruder mallocs and frees in all three regions.
TEST(Capture, CensusEqualsTheRunsOwnCounts) {
  for (const char* app : {"kmeans", "intruder"}) {
    stamp::StampRun run;
    run.app = app;
    run.threads = 8;
    stamp::StampOutcome out;
    const replay::Trace trace =
        capture_of([&] { out = stamp::run_stamp(run); });
    ASSERT_TRUE(out.result.verified) << app << ": " << out.result.detail;
    EXPECT_EQ(trace.meta.threads, 8u) << app;
    EXPECT_EQ(trace.count(replay::OpKind::kTxBegin),
              out.result.stats.commits + out.result.stats.aborts)
        << app;
    EXPECT_EQ(trace.count(replay::OpKind::kTxCommit), out.result.stats.commits)
        << app;
    EXPECT_EQ(trace.count(replay::OpKind::kTxAbort), out.result.stats.aborts)
        << app;
    // The capture put the InstrumentingAllocator in the stack itself.
    std::uint64_t mallocs = 0, frees = 0;
    for (const alloc::RegionProfile& r : out.profile.regions) {
      mallocs += r.mallocs;
      frees += r.frees;
    }
    EXPECT_GT(mallocs, 0u) << app;
    EXPECT_EQ(trace.count(replay::OpKind::kMalloc), mallocs) << app;
    EXPECT_EQ(trace.count(replay::OpKind::kFree), frees) << app;
    if (std::string(app) == "kmeans") {
      EXPECT_GT(trace.records.size(), 8u * 65536u);
    }
  }
}

// Record -> replay fidelity: capture a list-bench run, replay the trace
// through the SAME allocator model, and compare the placement it
// reproduces against what the capture recorded.
//
// Capture and replay run in different address spaces, and a trace holds
// each block as its offset in its run's space, so for every model each
// replayed block must sit at its recorded offset, and the full stripe
// statistics — hottest stripe included — must be bit-for-bit equal.
TEST(Determinism, RecordReplayReproducesPlacement) {
  for (const char* model :
       {"glibc", "hoard", "tbb", "tcmalloc", "jemalloc"}) {
    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kList;
    cfg.allocator = model;
    cfg.threads = 4;
    cfg.cache_model = false;  // the exact-placement contract
    cfg.initial = 256;
    cfg.key_range = 512;
    cfg.ops_per_thread = 100;
    cfg.seed = 20150207;
    harness::SetBenchResult bench;
    const replay::Trace trace =
        capture_of([&] { bench = harness::run_set_bench(cfg); });
    EXPECT_TRUE(bench.size_consistent) << model;
    EXPECT_EQ(trace.meta.allocator, model);
    EXPECT_EQ(trace.meta.seed, cfg.seed) << model;
    ASSERT_GT(trace.count(replay::OpKind::kMalloc), 0u) << model;
    ASSERT_GT(trace.count(replay::OpKind::kTxCommit), 0u) << model;

    harness::ReplayRun run;
    run.trace = &trace;
    run.allocator = model;
    // A replay's probes are not the capture's accesses: with the cache
    // model on they would move the replayed schedule off the captured one.
    run.cache_model = false;
    const replay::ReplayResult r = harness::run_replay(run).result;
    ASSERT_TRUE(r.ok) << model << ": " << r.error;
    EXPECT_EQ(r.mallocs, trace.count(replay::OpKind::kMalloc)) << model;
    EXPECT_EQ(r.unmatched_frees, 0u) << model;

    EXPECT_TRUE(r.stripes == replay::recorded_stripe_stats(trace)) << model;
    std::vector<std::uint64_t> recorded;
    for (const replay::TraceRecord& rr : trace.records) {
      if (rr.kind == replay::OpKind::kMalloc) recorded.push_back(rr.addr);
    }
    EXPECT_EQ(r.addresses, recorded) << model;

    // Replay is run-to-run deterministic: a second replay of the same
    // trace through a fresh instance must agree bit-for-bit.
    const replay::ReplayResult r2 = harness::run_replay(run).result;
    ASSERT_TRUE(r2.ok) << model << ": " << r2.error;
    EXPECT_EQ(r.address_fingerprint, r2.address_fingerprint) << model;
    EXPECT_TRUE(r.stripes == r2.stripes) << model;
    EXPECT_EQ(r.cycles, r2.cycles) << model;
  }
}

// Graceful degradation is deterministic too. Two threads repeatedly update
// the same stripe-distinct words in *inverted* orders — the canonical
// encounter-time-locking livelock shape: whichever transaction is behind
// aborts on the other's held locks, and under SUICIDE the loser tends to
// keep losing. A small retry cap must break every such streak by escalating
// the loser to serial-irrevocable mode, and the whole dance — commits,
// aborts, escalations — must replay exactly under a fixed seed.
TEST(Determinism, SerialIrrevocableEscalationBreaksLivelock) {
  std::unique_ptr<alloc::Allocator> allocator =
      alloc::create_allocator("tcmalloc");
  stm::Config scfg;
  scfg.allocator = allocator.get();
  scfg.cm = stm::ContentionManager::kSuicide;
  scfg.retry_cap = 4;
  stm::Stm stm(scfg);

  constexpr int kWords = 32;       // 64B apart: one ORT stripe per word
  constexpr int kTxPerThread = 25;
  auto* base = static_cast<std::uint64_t*>(stm.seq_malloc(kWords * 64));
  ASSERT_NE(base, nullptr);
  std::memset(base, 0, kWords * 64);

  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Sim;
  rc.threads = 2;
  rc.seed = 20150207;
  rc.cache_model = false;  // a cache-off golden: see the header comment
  sim::run_parallel(rc, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    for (int t = 0; t < kTxPerThread; ++t) {
      stm.atomically([&](stm::Tx& tx) {
        for (int i = 0; i < kWords; ++i) {
          const int idx = tid == 0 ? i : kWords - 1 - i;
          std::uint64_t* w = base + idx * 8;
          tx.store(w, tx.load(w) + 1);
          // Stretch the transaction well past the SUICIDE jitter window so
          // the conflict pattern cannot dissolve by luck.
          sim::tick(40);
        }
      });
    }
  });

  // Every word was incremented once by each of the 50 transactions.
  for (int i = 0; i < kWords; ++i) EXPECT_EQ(base[i * 8], 2u * kTxPerThread);
  stm.seq_free(base);

  const stm::TxStats s = stm.stats();
  EXPECT_EQ(s.commits, 2u * kTxPerThread);
  // Escalation fired (the liveness claim) and every escalated transaction
  // committed irrevocably (the no-abort claim).
  EXPECT_GT(s.irrevocable_entries, 0u);
  EXPECT_EQ(s.irrevocable_entries, s.irrevocable_commits);
  // Golden constants, recorded like the run_golden pins above: any drift in
  // the gate/escalation logic shifts these loudly.
  EXPECT_EQ(s.aborts, 141u);
  EXPECT_EQ(s.irrevocable_entries, 25u);
}

}  // namespace
}  // namespace tmx
