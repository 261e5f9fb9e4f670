// tmx::prof tests: histogram bucket geometry, export byte-stability, and
// the zero-perturbation contract (a prof-ON run reproduces the prof-OFF
// virtual-time results bit-for-bit).
//
// Everything runs with the cache model OFF, so a prof-ON run must match
// the cache-off golden determinism constants: with a flat probe cost the
// outcome depends only on the schedule, which the profiler must not touch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "harness/server_mix.hpp"
#include "harness/setbench.hpp"
#include "obs/metrics.hpp"
#include "prof/hdr_histogram.hpp"
#include "prof/prof.hpp"

namespace tmx {
namespace {

using prof::HdrHistogram;

// ---- Bucket geometry ----

TEST(HdrHistogram, IdentityBucketsBelowSubCount) {
  for (std::uint64_t v = 0; v < HdrHistogram::kSubCount; ++v) {
    EXPECT_EQ(HdrHistogram::index_of(v), v);
    EXPECT_EQ(HdrHistogram::lower_bound(v), v);
  }
}

TEST(HdrHistogram, ExactPowerOfTwoEdges) {
  // Every power of two from kSubCount up to the clamp range starts a fresh
  // bucket whose lower bound is exactly that power of two.
  for (unsigned k = HdrHistogram::kSubBits; k < 40; ++k) {
    const std::uint64_t v = 1ull << k;
    const std::size_t idx = HdrHistogram::index_of(v);
    EXPECT_EQ(HdrHistogram::lower_bound(idx), v) << "k=" << k;
    EXPECT_LT(HdrHistogram::index_of(v - 1), idx) << "k=" << k;
  }
}

TEST(HdrHistogram, BucketsContainTheirValues) {
  // lower_bound(idx) <= v < lower_bound(idx+1), with indices monotone in v.
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (1ull << 44); v += v / 3 + 1) {
    const std::size_t idx = HdrHistogram::index_of(v);
    EXPECT_GE(idx, prev);
    EXPECT_LE(HdrHistogram::lower_bound(idx), v);
    if (idx + 1 < HdrHistogram::kNumBuckets) {
      EXPECT_GT(HdrHistogram::lower_bound(idx + 1), v);
    }
    prev = idx;
  }
}

TEST(HdrHistogram, MaxValueClampKeepsExactMax) {
  HdrHistogram h;
  const std::uint64_t huge = ~0ull - 7;
  EXPECT_EQ(HdrHistogram::index_of(huge), HdrHistogram::kNumBuckets - 1);
  h.record(huge);
  h.record(3);
  EXPECT_EQ(h.max(), huge);            // tracked exactly, not bucketed
  EXPECT_EQ(h.percentile(100), huge);  // p100 returns the exact maximum
  EXPECT_EQ(h.count(), 2u);
}

TEST(HdrHistogram, PercentileClosestRank) {
  HdrHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);  // identity range
  EXPECT_EQ(h.percentile(0), 0u);
  EXPECT_EQ(h.percentile(50), 15u);  // rank floor(0.5 * 31)
  EXPECT_EQ(h.percentile(100), 31u);
  HdrHistogram empty;
  EXPECT_EQ(empty.percentile(50), 0u);
}

TEST(HdrHistogram, MergeAddsCounts) {
  HdrHistogram a, b;
  a.record(10);
  a.record(100);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 1110u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.percentile(100), 1000u);
}

// ---- server_mix + profiler integration ----

harness::ServerMixConfig small_mix(bool prof) {
  harness::ServerMixConfig cfg;
  cfg.workers = 4;
  cfg.requests = 128;
  cfg.cache_model = false;  // see file header
  cfg.seed = 20150207;
  cfg.prof = prof;
  cfg.prof_sample_cycles = 50'000;
  return cfg;
}

// The acceptance gate: the profiled run must reproduce the unprofiled
// run's virtual-time results bit-for-bit — same makespan, same commit and
// abort totals, same request-latency histogram (recorded by the harness
// either way).
TEST(Prof, OnOffBitForBit) {
  const harness::ServerMixResult off = run_server_mix(small_mix(false));
  ASSERT_FALSE(off.planes.prof);

  const harness::ServerMixResult on = run_server_mix(small_mix(true));
  ASSERT_TRUE(on.planes.prof);

  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.stats.commits, off.stats.commits);
  EXPECT_EQ(on.stats.aborts, off.stats.aborts);
  EXPECT_EQ(on.handoffs, off.handoffs);
  EXPECT_EQ(on.live_bytes_end, off.live_bytes_end);
  EXPECT_EQ(on.reserved_bytes_end, off.reserved_bytes_end);
  EXPECT_EQ(on.latency.count(), off.latency.count());
  EXPECT_EQ(on.latency.sum(), off.latency.sum());
  EXPECT_EQ(on.latency.max(), off.latency.max());

  // The profiler saw all three data families.
  const prof::Profile& p = *on.planes.prof;
  EXPECT_GT(p.op(prof::Op::kMalloc).count(), 0u);
  EXPECT_GT(p.op(prof::Op::kFree).count(), 0u);
  EXPECT_GT(p.op(prof::Op::kTxCommit).count(), 0u);
  EXPECT_GT(p.cross_thread_frees, 0u);
  EXPECT_GE(p.sites, 3u);  // (root) + parse + publish at least
  EXPECT_GT(p.samples, 0u);
}

// Same binary, same seed, two runs: the published prof.* metrics JSON must
// be byte-identical (integer cycles end to end — no doubles in the export).
TEST(Prof, MetricsJsonByteStable) {
  std::string json[2];
  for (int r = 0; r < 2; ++r) {
    obs::MetricsRegistry reg;
    prof::publish_metrics(*run_server_mix(small_mix(true)).planes.prof, reg);
    json[r] = reg.to_json();
  }
  EXPECT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);
  EXPECT_NE(json[0].find("prof.lat.malloc.p50"), std::string::npos);
  EXPECT_NE(json[0].find("prof.lat.tx_commit.p99"), std::string::npos);
  EXPECT_NE(json[0].find("prof.cross_thread_frees"), std::string::npos);
}

// CSV/folded exports are sorted + labeled, so multi-allocator
// concatenations are stable; headers are part of the file contract.
TEST(Prof, ExportsAreStable) {
  EXPECT_EQ(prof::timeseries_csv_header(),
            "label,cycles,live_bytes,reserved_bytes,reserved_pages,frag,"
            "commits,aborts,mallocs,frees\n");
  EXPECT_EQ(prof::sites_csv_header(),
            "label,site,epoch,allocs,alloc_bytes,frees,free_bytes,"
            "cross_thread_frees,live_bytes,peak_bytes\n");
  std::string ts[2], sites[2], folded[2];
  for (int r = 0; r < 2; ++r) {
    const prof::Profile p = *run_server_mix(small_mix(true)).planes.prof;
    ts[r] = p.timeseries_csv;
    sites[r] = p.sites_csv;
    folded[r] = p.folded;
  }
  EXPECT_FALSE(ts[0].empty());
  EXPECT_FALSE(sites[0].empty());
  EXPECT_FALSE(folded[0].empty());
  EXPECT_EQ(ts[0], ts[1]);
  EXPECT_EQ(sites[0], sites[1]);
  EXPECT_EQ(folded[0], folded[1]);
  EXPECT_NE(sites[0].find("request;parse"), std::string::npos);
  EXPECT_NE(sites[0].find("request;publish"), std::string::npos);
}

// The whole plane — STM hooks and the profiling allocator — must also be
// schedule-invisible: a profiled run under the golden determinism
// configuration reproduces the committed golden constants exactly.
TEST(Prof, GoldenConstantsWithProfilerInstalled) {
  harness::SetBenchConfig cfg;
  cfg.prof = true;
  cfg.prof_sample_cycles = 0;  // sampler off: latency+tx hooks only
  cfg.kind = harness::SetKind::kList;
  cfg.allocator = "glibc";
  cfg.threads = 4;
  cfg.cache_model = false;
  cfg.initial = 512;
  cfg.key_range = 1024;
  cfg.ops_per_thread = 200;
  cfg.seed = 20150207;
  const harness::SetBenchResult r = harness::run_set_bench(cfg);

  EXPECT_EQ(static_cast<std::uint64_t>(std::llround(r.seconds * 2.0e9)),
            1764310u);  // test_determinism.cpp GoldenListAcrossAllocators
  EXPECT_EQ(r.stats.commits, 800u);
  EXPECT_EQ(r.stats.aborts, 131u);
  const prof::Profile& p = *r.planes.prof;
  EXPECT_EQ(p.op(prof::Op::kTxCommit).count(), 800u);
  EXPECT_EQ(p.op(prof::Op::kTxAbortToRetry).count(), 131u);
}

}  // namespace
}  // namespace tmx
