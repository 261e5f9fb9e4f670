// tmx::fault — deterministic injection, graceful degradation, and the
// serial-irrevocable escalation path.
//
// Every test opens its own FaultPlan on a run context that closes on
// teardown, so the rest of the suite (and the golden determinism
// constants) runs with the plane idle.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "alloc/instrument.hpp"
#include "core/stm.hpp"
#include "fault/fault.hpp"
#include "fault/fault_alloc.hpp"
#include "harness/replay.hpp"
#include "harness/run_context.hpp"
#include "obs/metrics.hpp"
#include "replay/replayer.hpp"
#include "sim/engine.hpp"

namespace tmx::fault {
namespace {

struct FaultFixture : ::testing::Test {
  // Opens `plan` on a fresh run context, closing the previous one.
  void open_run(const FaultPlan& plan) {
    run_.emplace(harness::RunSpec{.fault = plan});
  }
  std::optional<harness::RunContext> run_;
};

// The decision stream is a pure function of (seed, site, tid, counter):
// reopening the same plan replays the identical accept/reject pattern.
TEST_F(FaultFixture, DecisionStreamIsSeedDeterministic) {
  FaultPlan plan;
  plan.oom_rate = 0.3;
  plan.oom_everywhere = true;

  auto draw = [](int n) {
    std::vector<bool> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.push_back(should_fail_alloc());
    return out;
  };

  open_run(plan);
  const std::vector<bool> first = draw(256);
  open_run(plan);
  const std::vector<bool> second = draw(256);
  EXPECT_EQ(first, second);

  plan.seed += 1;
  open_run(plan);
  const std::vector<bool> other = draw(256);
  EXPECT_NE(first, other);

  // The rate is honored statistically (0.3 +/- a generous tolerance).
  int fired = 0;
  for (bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 40);
  EXPECT_LT(fired, 120);
}

TEST_F(FaultFixture, DisabledPlaneInjectsNothing) {
  EXPECT_FALSE(enabled());
  FaultyAllocator fa(alloc::create_allocator("tcmalloc"));
  void* p = fa.allocate(64);
  EXPECT_NE(p, nullptr);
  fa.deallocate(p);
  EXPECT_EQ(fa.injected_oom(), 0u);
  EXPECT_EQ(fa.delayed_frees(), 0u);
}

TEST_F(FaultFixture, OomRegionFilterRestrictsToTransactions) {
  FaultPlan plan;
  plan.oom_rate = 1.0;  // every eligible allocation fails
  open_run(plan);
  FaultyAllocator fa(alloc::create_allocator("tcmalloc"));

  // Outside Region::Tx the default plan never fires.
  void* p = fa.allocate(64);
  ASSERT_NE(p, nullptr);
  fa.deallocate(p);

  {
    alloc::RegionScope tx(alloc::Region::Tx);
    EXPECT_EQ(fa.allocate(64), nullptr);
  }
  EXPECT_EQ(fa.injected_oom(), 1u);
}

TEST_F(FaultFixture, OomBudgetBoundsInjections) {
  FaultPlan plan;
  plan.oom_rate = 1.0;
  plan.oom_everywhere = true;
  plan.oom_budget = 3;
  open_run(plan);
  FaultyAllocator fa(alloc::create_allocator("tcmalloc"));

  int nulls = 0;
  for (int i = 0; i < 16; ++i) {
    void* p = fa.allocate(32);
    if (p == nullptr) {
      ++nulls;
    } else {
      fa.deallocate(p);
    }
  }
  EXPECT_EQ(nulls, 3);
  EXPECT_EQ(stats().injected[static_cast<int>(Site::kMalloc)], 3u);
}

TEST_F(FaultFixture, DelayedFreeParksUntilVirtualDeadline) {
  FaultPlan plan;
  plan.delay_free_rate = 1.0;
  plan.delay_free_cycles = 500;
  open_run(plan);

  auto inner = std::make_unique<alloc::InstrumentingAllocator>(
      alloc::create_allocator("tcmalloc"));
  alloc::InstrumentingAllocator* probe = inner.get();
  FaultyAllocator fa(std::move(inner));

  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Sim;
  rc.threads = 1;
  rc.cache_model = false;
  auto inner_frees = [&] {
    std::uint64_t total = 0;
    const alloc::AllocationProfile p = probe->profile();
    for (const alloc::RegionProfile& r : p.regions) total += r.frees;
    return total;
  };
  sim::run_parallel(rc, [&](int) {
    void* p = fa.allocate(64);
    ASSERT_NE(p, nullptr);
    const std::uint64_t frees_before = inner_frees();
    fa.deallocate(p);
    // Parked, not forwarded: the inner allocator saw no free yet.
    EXPECT_EQ(inner_frees(), frees_before);
    sim::tick(plan.delay_free_cycles + 1);
    // The next allocator call flushes the due queue.
    void* q = fa.allocate(64);
    EXPECT_EQ(inner_frees(), frees_before + 1);
    fa.deallocate(q);
  });
  EXPECT_EQ(fa.delayed_frees(), 2u);
  // The destructor force-flushes whatever is still parked (checked
  // implicitly: the instrumenting wrapper asserts balance on teardown).
}

// An injected OOM inside a transaction aborts it cleanly (cause kOom) and
// the retry — with the budget exhausted — succeeds.
TEST_F(FaultFixture, TxOomAbortsAndRetries) {
  FaultPlan plan;
  plan.oom_rate = 1.0;
  plan.oom_budget = 2;
  open_run(plan);

  auto allocator = std::make_unique<FaultyAllocator>(
      alloc::create_allocator("tcmalloc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);

  void* got = nullptr;
  stm.atomically([&](stm::Tx& tx) { got = tx.malloc(64); });
  ASSERT_NE(got, nullptr);
  stm.seq_free(got);

  const stm::TxStats s = stm.stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 2u);
  EXPECT_EQ(s.aborts_by_cause[static_cast<int>(stm::AbortCause::kOom)], 2u);
  EXPECT_EQ(s.oom_nulls, 2u);
  EXPECT_EQ(s.irrevocable_entries, 0u);
}

// With an unbounded OOM storm, the retry cap escalates the transaction to
// serial-irrevocable mode; the shield turns injections off for it, so the
// escalated attempt commits.
TEST_F(FaultFixture, RetryCapEscalatesToIrrevocable) {
  FaultPlan plan;
  plan.oom_rate = 1.0;
  open_run(plan);

  auto allocator = std::make_unique<FaultyAllocator>(
      alloc::create_allocator("tcmalloc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  cfg.retry_cap = 3;
  stm::Stm stm(cfg);

  void* got = nullptr;
  stm.atomically([&](stm::Tx& tx) { got = tx.malloc(64); });
  ASSERT_NE(got, nullptr);
  stm.seq_free(got);

  const stm::TxStats s = stm.stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 3u);
  EXPECT_EQ(s.aborts_by_cause[static_cast<int>(stm::AbortCause::kOom)], 3u);
  EXPECT_EQ(s.irrevocable_entries, 1u);
  EXPECT_EQ(s.irrevocable_commits, 1u);

  // A later transaction is back to normal (token released).
  stm.atomically([&](stm::Tx& tx) {
    tx.free(nullptr);
    (void)tx;
  });
  EXPECT_EQ(stm.stats().irrevocable_entries, 1u);
}

TEST_F(FaultFixture, SpuriousAbortInjection) {
  FaultPlan plan;
  plan.spurious_abort_rate = 1.0;
  plan.oom_rate = 0.0;
  open_run(plan);

  auto allocator = std::make_unique<FaultyAllocator>(
      alloc::create_allocator("tcmalloc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  cfg.retry_cap = 2;  // rate 1.0 would otherwise retry forever
  stm::Stm stm(cfg);

  std::uint64_t word = 0;
  stm.atomically([&](stm::Tx& tx) { tx.store(&word, word + 1); });
  const stm::TxStats s = stm.stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 2u);  // injected until the cap escalated
  EXPECT_EQ(s.irrevocable_entries, 1u);
  EXPECT_EQ(word, 1u);
}

TEST_F(FaultFixture, ReserveCapExhaustsProvider) {
  FaultPlan plan;
  plan.reserve_cap_bytes = 8 << 20;  // a few chunks, then hard exhaustion
  open_run(plan);

  FaultyAllocator fa(alloc::create_allocator("tbb"));
  alloc::RegionScope tx(alloc::Region::Tx);
  std::vector<void*> live;
  bool saw_null = false;
  for (int i = 0; i < 200000 && !saw_null; ++i) {
    void* p = fa.allocate(4096);
    if (p == nullptr) {
      saw_null = true;
    } else {
      live.push_back(p);
    }
  }
  EXPECT_TRUE(saw_null);
  EXPECT_GT(stats().injected[static_cast<int>(Site::kReserve)], 0u);
  for (void* p : live) fa.deallocate(p);
}

// Two identical faulty runs publish byte-identical fault metrics, and the
// captured trace carries the injected OOMs (address 0) so a replay counts
// them without re-issuing the allocations.
TEST_F(FaultFixture, FaultScheduleSurvivesRecordReplay) {
  FaultPlan plan;
  plan.oom_rate = 0.2;
  open_run(plan);

  // Each run is captured, as --record-trace captures it.
  auto run_once = [&](replay::Trace* trace_out) {
    harness::set_report(harness::Report::kCapture, true);
    open_run(plan);  // fresh streams and counters
    std::pair<std::uint64_t, stm::TxStats> out;
    {
      auto allocator = std::make_unique<alloc::InstrumentingAllocator>(
          std::make_unique<FaultyAllocator>(alloc::create_allocator("tbb")));
      stm::Config cfg;
      cfg.allocator = allocator.get();
      cfg.retry_cap = 8;
      stm::Stm stm(cfg);

      sim::RunConfig rc;
      rc.kind = sim::EngineKind::Sim;
      rc.threads = 2;
      rc.cache_model = false;
      std::vector<void*> survivors;
      sim::run_parallel(rc, [&](int tid) {
        alloc::RegionScope par(alloc::Region::Par);
        for (int i = 0; i < 64; ++i) {
          void* p = nullptr;
          stm.atomically(
              [&](stm::Tx& tx) { p = tx.malloc(48 + 16 * (i % 4)); });
          if (p != nullptr && i % 2 == 0) {
            stm.atomically([&](stm::Tx& tx) { tx.free(p); });
          } else if (p != nullptr && tid == 0) {
            survivors.push_back(p);
          } else if (p != nullptr) {
            stm.seq_free(p);
          }
        }
      });
      for (void* p : survivors) stm.seq_free(p);
      out = {stats().injected[static_cast<int>(Site::kMalloc)], stm.stats()};
    }
    // Closing the run hands its log to the process's capture.
    run_.reset();
    harness::set_report(harness::Report::kCapture, false);
    *trace_out = harness::take_capture();
    return out;
  };

  replay::Trace t1, t2;
  const auto [oom1, stats1] = run_once(&t1);
  const auto [oom2, stats2] = run_once(&t2);

  // Identical schedule across the two runs.
  EXPECT_GT(oom1, 0u);
  EXPECT_EQ(oom1, oom2);
  EXPECT_EQ(stats1.commits, stats2.commits);
  EXPECT_EQ(stats1.aborts, stats2.aborts);
  EXPECT_EQ(stats1.oom_nulls, stats2.oom_nulls);
  EXPECT_EQ(t1.records, t2.records);

  // The capture carries the injected OOMs; replay, a run of its own with
  // no fault plane, reports them and is itself reproducible.
  harness::ReplayRun replay_run;
  replay_run.trace = &t1;
  replay_run.allocator = "tbb";
  const replay::ReplayResult r1 = harness::run_replay(replay_run).result;
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.oom_records, oom1);
  const replay::ReplayResult r2 = harness::run_replay(replay_run).result;
  EXPECT_EQ(r1.address_fingerprint, r2.address_fingerprint);
  EXPECT_EQ(r1.stripes, r2.stripes);
}

TEST_F(FaultFixture, PublishMetricsEmitsActiveSitesOnly) {
  FaultPlan plan;
  plan.oom_rate = 1.0;
  plan.oom_everywhere = true;
  open_run(plan);
  (void)should_fail_alloc();

  obs::MetricsRegistry reg;
  publish_metrics(stats(), reg);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("fault.oom.decisions"), std::string::npos);
  EXPECT_NE(json.find("fault.oom.injected"), std::string::npos);
  EXPECT_EQ(json.find("fault.reserve.decisions"), std::string::npos);
}

// The run watchdog: a livelocked fiber trips the budget, and the process
// exits with the dedicated code after flushing diagnostics.
TEST(FaultWatchdog, RunBudgetBreachExitsNonzero) {
  EXPECT_EXIT(
      {
        sim::RunConfig rc;
        rc.kind = sim::EngineKind::Sim;
        rc.threads = 1;
        rc.cache_model = false;
        rc.watchdog_cycles = 10000;
        sim::run_parallel(rc, [](int) {
          for (;;) {
            sim::tick(64);
            sim::yield();
          }
        });
      },
      ::testing::ExitedWithCode(sim::kWatchdogExitCode), "watchdog");
}

TEST(FaultWatchdog, TxBudgetBreachExitsNonzero) {
  EXPECT_EXIT(
      {
        FaultPlan plan;
        plan.oom_rate = 1.0;  // unbounded storm, no escalation configured
        const harness::RunContext run({.fault = plan});
        auto allocator = std::make_unique<FaultyAllocator>(
            alloc::create_allocator("tcmalloc"));
        stm::Config cfg;
        cfg.allocator = allocator.get();
        cfg.tx_cycle_budget = 50000;
        stm::Stm stm(cfg);
        sim::RunConfig rc;
        rc.kind = sim::EngineKind::Sim;
        rc.threads = 1;
        rc.cache_model = false;
        sim::run_parallel(rc, [&](int) {
          alloc::RegionScope par(alloc::Region::Par);
          stm.atomically([&](stm::Tx& tx) { (void)tx.malloc(64); });
        });
      },
      ::testing::ExitedWithCode(sim::kWatchdogExitCode), "watchdog");
}

}  // namespace
}  // namespace tmx::fault
