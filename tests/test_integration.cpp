// Cross-module integration: engines x allocators x STM x structures, the
// synthetic benchmark driver, and end-to-end reproducibility properties.
#include <gtest/gtest.h>

#include "harness/setbench.hpp"

namespace tmx {
namespace {

TEST(SetBenchIntegration, SingleThreadIsDeterministicPerSeed) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kRbTree;
  cfg.allocator = "hoard";
  cfg.threads = 1;
  cfg.initial = 128;
  cfg.key_range = 256;
  cfg.ops_per_thread = 64;
  const auto a = harness::run_set_bench(cfg);
  const auto b = harness::run_set_bench(cfg);
  EXPECT_EQ(a.stats.commits, b.stats.commits);
  EXPECT_EQ(a.final_size, b.final_size);
}

TEST(SetBenchIntegration, CommitsEqualOpsRegardlessOfAborts) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kList;
  cfg.allocator = "tcmalloc";
  cfg.threads = 8;
  cfg.initial = 128;
  cfg.key_range = 256;
  cfg.ops_per_thread = 24;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_EQ(res.stats.commits, res.ops);
  EXPECT_GT(res.stats.aborts, 0u);  // 8 threads on a short list must clash
  EXPECT_TRUE(res.size_consistent);
}

// Real host threads: the models' free-list writes race with no optimistic
// transactional read (TSan runs both instances).
class SetBenchThreads : public ::testing::TestWithParam<const char*> {};

TEST_P(SetBenchThreads, ThreadsEngineMatchesSemantics) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kHashSet;
  cfg.allocator = GetParam();
  cfg.threads = 4;
  cfg.engine = sim::EngineKind::Threads;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 200;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
  EXPECT_EQ(res.stats.commits, res.ops);
}

INSTANTIATE_TEST_SUITE_P(Models, SetBenchThreads,
                         ::testing::Values("glibc", "tbb"),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(SetBenchIntegration, ReadOnlyWorkloadNeverAborts) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kHashSet;
  cfg.allocator = "glibc";
  cfg.threads = 8;
  cfg.update_pct = 0.0;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 50;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_EQ(res.stats.aborts, 0u);
  EXPECT_EQ(res.final_size, 256u);
}

TEST(SetBenchIntegration, HigherUpdateRateAbortsMore) {
  auto run_with_updates = [](double pct) {
    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kList;
    cfg.allocator = "tbb";
    cfg.threads = 8;
    cfg.update_pct = pct;
    cfg.initial = 256;
    cfg.key_range = 512;
    cfg.ops_per_thread = 32;
    return harness::run_set_bench(cfg).stats.abort_ratio();
  };
  EXPECT_GT(run_with_updates(0.6), run_with_updates(0.05));
}

TEST(SetBenchIntegration, Figure5EffectOnTheList) {
  // The paper's central synthetic result, end to end: on the sorted list,
  // Glibc's 32-byte blocks avoid the ORT aliasing that the exact-16-byte
  // allocators suffer, so Glibc aborts (much) less at 8 threads.
  auto aborts_with = [](const char* alloc) {
    double total = 0;
    for (int rep = 0; rep < 3; ++rep) {
      harness::SetBenchConfig cfg;
      cfg.kind = harness::SetKind::kList;
      cfg.allocator = alloc;
      cfg.threads = 8;
      cfg.initial = 512;
      cfg.key_range = 1024;
      cfg.ops_per_thread = 32;
      cfg.seed = 123 + rep;
      total += harness::run_set_bench(cfg).stats.abort_ratio();
    }
    return total / 3;
  };
  const double glibc = aborts_with("glibc");
  EXPECT_LT(glibc, aborts_with("hoard"));
  EXPECT_LT(glibc, aborts_with("tbb"));
  EXPECT_LT(glibc, aborts_with("tcmalloc"));
}

TEST(SetBenchIntegration, ShiftFourRemovesTheGlibcAdvantage) {
  auto aborts_with = [](const char* alloc, unsigned shift) {
    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kList;
    cfg.allocator = alloc;
    cfg.threads = 8;
    cfg.shift = shift;
    cfg.initial = 512;
    cfg.key_range = 1024;
    cfg.ops_per_thread = 32;
    return harness::run_set_bench(cfg).stats.abort_ratio();
  };
  // With 16-byte stripes the 16-byte-block allocators stop false-aborting:
  // their abort rate drops toward Glibc's.
  const double tbb5 = aborts_with("tbb", 5);
  const double tbb4 = aborts_with("tbb", 4);
  EXPECT_LT(tbb4, tbb5);
}

TEST(SetBenchIntegration, TxCacheDoesNotBreakSemantics) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kRbTree;
  cfg.allocator = "glibc";
  cfg.threads = 6;
  cfg.tx_alloc_cache = true;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 64;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
}

TEST(SetBenchIntegration, CacheModelTogglesCleanly) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kHashSet;
  cfg.allocator = "tcmalloc";
  cfg.threads = 4;
  cfg.initial = 128;
  cfg.key_range = 256;
  cfg.ops_per_thread = 32;
  cfg.cache_model = false;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
  EXPECT_EQ(res.cache.accesses, 0u);
}

TEST(SetBenchIntegration, VirtualTimeScalesWithWork) {
  auto seconds_for_ops = [](std::size_t ops) {
    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kHashSet;
    cfg.allocator = "tbb";
    cfg.threads = 2;
    cfg.initial = 128;
    cfg.key_range = 256;
    cfg.ops_per_thread = ops;
    return harness::run_set_bench(cfg).seconds;
  };
  EXPECT_GT(seconds_for_ops(256), 2.0 * seconds_for_ops(32));
}

}  // namespace
}  // namespace tmx
