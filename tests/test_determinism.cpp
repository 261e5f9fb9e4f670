// Determinism golden tests: the repo's core claim is that the simulator is
// bit-deterministic, and the hot-path optimizations (indexed scheduler with
// fast-resume, indexed STM write-set, cache sharer directory) are required
// to be pure performance work — zero behavioral drift. These tests pin exact
// `cycles`, `commits` and `aborts` values for fixed-seed runs, so any future
// change that perturbs scheduling order, barrier behavior or conflict
// detection fails loudly instead of silently shifting every figure.
//
// The golden configurations run with the cache model OFF: cache set indices
// depend on absolute addresses (mmap/ASLR), while with a flat probe cost the
// outcome depends only on the schedule, the seeds and ORT stripe aliasing —
// all of which are offset-determined for the model allocators (64MB-aligned
// arenas / aligned superblocks), hence stable across processes and machines.
// Verified empirically: identical across repeated fresh-process runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/glibc_model.hpp"
#include "harness/setbench.hpp"
#include "obs/tracer.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "replay/trace_format.hpp"

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

Outcome run_golden(harness::SetKind kind, const std::string& alloc) {
  harness::SetBenchConfig cfg;
  cfg.kind = kind;
  cfg.allocator = alloc;
  cfg.threads = 4;
  cfg.cache_model = false;  // address-independent: see the header comment
  cfg.initial = 512;
  cfg.key_range = 1024;
  cfg.ops_per_thread = 200;
  cfg.seed = 20150207;
  const harness::SetBenchResult r = harness::run_set_bench(cfg);
  EXPECT_TRUE(r.size_consistent);
  Outcome o;
  // RunResult reports seconds = cycles / (2.0 GHz); invert exactly.
  o.cycles = static_cast<std::uint64_t>(std::llround(r.seconds * 2.0e9));
  o.commits = r.stats.commits;
  o.aborts = r.stats.aborts;
  return o;
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

// Within-process repeatability, independent of the committed constants:
// re-running an identical configuration must reproduce itself exactly (this
// also covers cache-model-on runs, whose absolute constants are
// address-dependent and therefore not committable).
//
// The comparison starts from a WARMED process: the very first bench run in a
// process triggers one-time lazy initialization (metric-name interning,
// gtest/libc internals) whose host-heap growth can shift where subsequent
// host allocations — including the bench fixture headers whose words the STM
// probes through the cache model — land. That shift is a property of the
// host allocator, not of the simulator; from the second run on, placement is
// stable and every run must reproduce exactly.
TEST(Determinism, RepeatableWithCacheModel) {
  auto once = [] {
    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kRbTree;
    cfg.allocator = "tcmalloc";
    cfg.threads = 4;
    cfg.cache_model = true;
    cfg.initial = 256;
    cfg.key_range = 512;
    cfg.ops_per_thread = 100;
    cfg.seed = 42;
    const harness::SetBenchResult r = harness::run_set_bench(cfg);
    Outcome o;
    o.cycles = static_cast<std::uint64_t>(std::llround(r.seconds * 2.0e9));
    o.commits = r.stats.commits;
    o.aborts = r.stats.aborts;
    return o;
  };
  (void)once();  // warm-up: absorbs one-time lazy process initialization
  const Outcome a = once();
  const Outcome b = once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.commits, 400u);
}

// Record -> replay fidelity: capture a list-bench run through the tracer,
// replay the trace through the SAME allocator model, and compare the
// placement it reproduces against what the capture recorded.
//
// What is pinned, and why (see replay/replayer.hpp for the full contract):
//   * Within-region placement is exact for every model — each replayed
//     address must match the recorded one at the same offset inside its
//     64MB-aligned glibc arena, and the shift-invariant collision counts
//     (cross-thread, same-thread, peak-live, blocks) must be identical
//     for all models.
//   * For glibc the FULL stripe statistics — including the hottest stripe
//     index — are bit-for-bit equal: arenas are 64MB-aligned and 64MB is a
//     multiple of the 2^(shift+ort_log2) = 32MB stripe aliasing period, so
//     stripe indices do not depend on where the OS maps the arenas.
//   * Absolute addresses usually reproduce too (the replayed instance
//     re-maps the regions the destroyed capture instance vacated), but the
//     host's mmap placement is not contractual, so the test only asserts
//     the invariant parts.
TEST(Determinism, RecordReplayReproducesPlacement) {
  if (!obs::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  for (const char* model :
       {"glibc", "hoard", "tbb", "tcmalloc", "jemalloc"}) {
    obs::Tracer::instance().enable(1u << 16);

    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kList;
    cfg.allocator = model;
    cfg.threads = 4;
    cfg.cache_model = false;  // the exact-placement contract
    cfg.initial = 256;
    cfg.key_range = 512;
    cfg.ops_per_thread = 100;
    cfg.seed = 20150207;
    const harness::SetBenchResult bench = harness::run_set_bench(cfg);
    EXPECT_TRUE(bench.size_consistent) << model;

    replay::Recorder rec;
    rec.meta.allocator = model;
    rec.meta.shift = cfg.shift;
    rec.meta.ort_log2 = cfg.ort_log2;
    rec.meta.seed = cfg.seed;
    rec.drain(obs::Tracer::instance());
    obs::Tracer::instance().clear();
    obs::Tracer::instance().disable();

    const replay::Trace trace = rec.build();
    ASSERT_FALSE(trace.records.empty()) << model;
    ASSERT_FALSE(trace.gappy()) << model << ": capture overflowed the ring";
    ASSERT_GT(trace.count(replay::OpKind::kMalloc), 0u) << model;
    ASSERT_GT(trace.count(replay::OpKind::kTxCommit), 0u) << model;

    replay::ReplayConfig rc;
    rc.allocator = model;
    rc.cache_model = false;
    const replay::ReplayResult r = replay::replay_trace(trace, rc);
    ASSERT_TRUE(r.ok) << model << ": " << r.error;
    EXPECT_EQ(r.mallocs, trace.count(replay::OpKind::kMalloc)) << model;
    EXPECT_EQ(r.unmatched_frees, 0u) << model;

    // Shift-invariant collision structure must reproduce for every model.
    const replay::StripeStats recorded =
        replay::recorded_stripe_stats(trace);
    EXPECT_EQ(r.stripes.blocks, recorded.blocks) << model;
    EXPECT_EQ(r.stripes.cross_thread_collisions,
              recorded.cross_thread_collisions)
        << model;
    EXPECT_EQ(r.stripes.same_thread_collisions,
              recorded.same_thread_collisions)
        << model;
    EXPECT_EQ(r.stripes.peak_live_blocks, recorded.peak_live_blocks)
        << model;

    if (model == std::string("glibc")) {
      // 64MB arena alignment makes glibc's stripe statistics — hottest
      // stripe included — and within-arena offsets mmap-placement-proof.
      EXPECT_TRUE(r.stripes == recorded) << "glibc stripe stats drifted";
      const std::uint64_t arena_mask =
          alloc::GlibcModelAllocator::kArenaSize - 1;
      std::size_t mi = 0;
      for (const replay::TraceRecord& rr : trace.records) {
        if (rr.kind != replay::OpKind::kMalloc) continue;
        ASSERT_LT(mi, r.addresses.size());
        EXPECT_EQ(r.addresses[mi] & arena_mask, rr.addr & arena_mask)
            << "glibc malloc #" << mi << " moved within its arena";
        ++mi;
      }
    }

    // Replay is run-to-run deterministic: a second replay of the same
    // trace through a fresh instance must agree bit-for-bit.
    const replay::ReplayResult r2 = replay::replay_trace(trace, rc);
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
  rc.cache_model = false;  // address-independent: see the header comment
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
