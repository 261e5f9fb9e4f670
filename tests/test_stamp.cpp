// End-to-end tests of the STAMP application ports: every app must verify
// its own output under single-threaded and contended multi-threaded
// execution, for multiple allocators, under the simulator — and the
// allocation profile must match the paper's Table 5 shape.
#include <gtest/gtest.h>

#include "stamp/app.hpp"

namespace tmx::stamp {
namespace {

StampRun base_run(const std::string& app, const std::string& alloc,
                  int threads) {
  StampRun r;
  r.app = app;
  r.allocator = alloc;
  r.threads = threads;
  r.scale = 0.25;  // keep tests fast; benches use the full default scale
  return r;
}

struct Case {
  std::string app;
  std::string alloc;
  int threads;
};

class StampVerify : public ::testing::TestWithParam<Case> {};

TEST_P(StampVerify, RunsAndSelfVerifies) {
  const Case& c = GetParam();
  const StampOutcome out = run_stamp(base_run(c.app, c.alloc, c.threads));
  EXPECT_TRUE(out.result.verified)
      << c.app << "/" << c.alloc << "/t" << c.threads << ": "
      << out.result.detail;
  EXPECT_GT(out.result.stats.commits, 0u);
  EXPECT_GE(out.result.seconds, 0.0);
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const auto& app : app_names()) {
    cases.push_back({app, "tbb", 1});
    cases.push_back({app, "glibc", 4});
    cases.push_back({app, "tcmalloc", 4});
    cases.push_back({app, "hoard", 8});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.app + "_" + info.param.alloc + "_t" +
         std::to_string(info.param.threads);
}

INSTANTIATE_TEST_SUITE_P(Apps, StampVerify, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(StampRegistry, NamesMatchTable5Order) {
  const auto names = app_names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "bayes");
  EXPECT_EQ(names.back(), "yada");
  for (const auto& n : names) EXPECT_TRUE(app_exists(n));
  EXPECT_FALSE(app_exists("quake"));
}

TEST(StampProfile, KmeansAndSsca2DoNotAllocateInTx) {
  // Paper Table 5: these two only allocate during initialization.
  for (const char* app : {"kmeans", "ssca2"}) {
    StampRun r = base_run(app, "tbb", 2);
    r.instrument = true;
    const StampOutcome out = run_stamp(r);
    const auto& tx = out.profile.regions[static_cast<int>(alloc::Region::Tx)];
    EXPECT_EQ(tx.mallocs, 0u) << app;
    const auto& s = out.profile.regions[static_cast<int>(alloc::Region::Seq)];
    EXPECT_GT(s.mallocs, 0u) << app;
  }
}

TEST(StampProfile, TxHeavyAppsAllocateInTx) {
  // Paper Table 5: genome, intruder, vacation and yada allocate inside
  // transactions, mostly small blocks.
  for (const char* app : {"genome", "intruder", "vacation", "yada"}) {
    StampRun r = base_run(app, "tbb", 2);
    r.instrument = true;
    const StampOutcome out = run_stamp(r);
    const auto& tx = out.profile.regions[static_cast<int>(alloc::Region::Tx)];
    EXPECT_GT(tx.mallocs, 0u) << app;
  }
}

TEST(StampProfile, IntruderShowsPrivatizationPattern) {
  // Memory allocated inside transactions is freed in the parallel region.
  StampRun r = base_run("intruder", "tcmalloc", 2);
  r.instrument = true;
  const StampOutcome out = run_stamp(r);
  const auto& par = out.profile.regions[static_cast<int>(alloc::Region::Par)];
  EXPECT_GT(par.frees, 0u);
}

TEST(StampProfile, YadaFreesTransactionally) {
  StampRun r = base_run("yada", "tbb", 2);
  r.instrument = true;
  const StampOutcome out = run_stamp(r);
  const auto& tx = out.profile.regions[static_cast<int>(alloc::Region::Tx)];
  EXPECT_GT(tx.frees, 0u);
  EXPECT_GT(tx.mallocs, 0u);
}

TEST(StampDeterminism, SameSeedSameOutcome) {
  // Commit counts (not abort counts, which depend on address layout) are
  // reproducible for a fixed seed in single-threaded runs.
  StampRun r = base_run("vacation", "tbb", 1);
  const auto a = run_stamp(r);
  const auto b = run_stamp(r);
  EXPECT_EQ(a.result.stats.commits, b.result.stats.commits);
  EXPECT_EQ(a.result.detail, b.result.detail);
}

TEST(StampContention, MultiThreadedRunsAbort) {
  // Under the simulator, contended apps must show a nonzero abort rate —
  // otherwise the interleaving machinery is not exercising conflicts.
  StampRun r = base_run("intruder", "tbb", 8);
  const auto out = run_stamp(r);
  EXPECT_GT(out.result.stats.aborts, 0u);
  EXPECT_TRUE(out.result.verified) << out.result.detail;
}

TEST(StampOptions, TxAllocCacheKeepsAppsCorrect) {
  for (const char* app : {"genome", "vacation", "yada"}) {
    StampRun r = base_run(app, "glibc", 4);
    r.tx_alloc_cache = true;
    const auto out = run_stamp(r);
    EXPECT_TRUE(out.result.verified) << app << ": " << out.result.detail;
  }
}

TEST(StampOptions, ShiftFourKeepsAppsCorrect) {
  StampRun r = base_run("genome", "tcmalloc", 4);
  r.shift = 4;
  const auto out = run_stamp(r);
  EXPECT_TRUE(out.result.verified) << out.result.detail;
}

TEST(StampOptions, WriteThroughDesignKeepsAppsCorrect) {
  for (const char* app : {"genome", "vacation", "intruder"}) {
    StampRun r = base_run(app, "tbb", 4);
    r.design = stm::StmDesign::kWriteThroughEtl;
    const auto out = run_stamp(r);
    EXPECT_TRUE(out.result.verified) << app << ": " << out.result.detail;
  }
}

TEST(StampOptions, CommitTimeLockingKeepsAppsCorrect) {
  for (const char* app : {"genome", "vacation", "labyrinth"}) {
    StampRun r = base_run(app, "tcmalloc", 4);
    r.design = stm::StmDesign::kCommitTimeLocking;
    const auto out = run_stamp(r);
    EXPECT_TRUE(out.result.verified) << app << ": " << out.result.detail;
  }
}

TEST(StampOptions, HybridModeKeepsAppsCorrect) {
  for (const char* app : {"kmeans", "vacation", "intruder", "yada"}) {
    StampRun r = base_run(app, "hoard", 4);
    r.htm_enabled = true;
    const auto out = run_stamp(r);
    EXPECT_TRUE(out.result.verified) << app << ": " << out.result.detail;
    EXPECT_GT(out.result.stats.hw_starts, 0u) << app;
  }
}

TEST(StampOptions, ThreadEngineRunsApps) {
  for (const char* app : {"kmeans", "vacation"}) {
    StampRun r = base_run(app, "glibc", 2);
    r.engine = sim::EngineKind::Threads;
    const auto out = run_stamp(r);
    EXPECT_TRUE(out.result.verified) << app << ": " << out.result.detail;
  }
}

}  // namespace
}  // namespace tmx::stamp
