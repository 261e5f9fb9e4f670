// The STM's alternative designs: write-through ETL and the hybrid
// (best-effort HTM + STM fallback) execution mode.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "check/check.hpp"
#include "check/check_alloc.hpp"
#include "core/stm.hpp"
#include "harness/run_context.hpp"
#include "harness/setbench.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tmx::stm {
namespace {

sim::RunConfig sim_cfg(int threads) {
  sim::RunConfig rc;
  rc.threads = threads;
  rc.cache_model = false;
  return rc;
}

struct DesignFixture : ::testing::TestWithParam<StmDesign> {
  void SetUp() override {
    allocator = alloc::create_allocator("glibc");
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.design = GetParam();
    stm = std::make_unique<Stm>(cfg);
  }
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<Stm> stm;
};

TEST_P(DesignFixture, CommitMakesWritesVisible) {
  alignas(8) std::uint64_t x = 1;
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{7}); });
  EXPECT_EQ(x, 7u);
}

TEST_P(DesignFixture, AbortLeavesMemoryUntouched) {
  alignas(8) std::uint64_t x = 5;
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{99});
    if (++attempts == 1) tx.restart();
  });
  EXPECT_EQ(x, 99u);
  EXPECT_EQ(attempts, 2);
}

TEST_P(DesignFixture, ReadOwnWrite) {
  alignas(8) std::uint64_t x = 1;
  stm->atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{2});
    EXPECT_EQ(tx.load(&x), 2u);
    tx.store(&x, std::uint64_t{3});
    EXPECT_EQ(tx.load(&x), 3u);
  });
  EXPECT_EQ(x, 3u);
}

TEST_P(DesignFixture, PartialWordWrites) {
  struct alignas(8) S {
    std::uint32_t a, b;
  } s{1, 2};
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    tx.store(&s.a, std::uint32_t{10});
    if (++attempts == 1) tx.restart();
    EXPECT_EQ(tx.load(&s.b), 2u);
  });
  EXPECT_EQ(s.a, 10u);
  EXPECT_EQ(s.b, 2u);
}

TEST_P(DesignFixture, ConcurrentCountersStayAtomic) {
  alignas(8) std::uint64_t counter = 0;
  sim::run_parallel(sim_cfg(8), [&](int) {
    for (int i = 0; i < 100; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&counter, tx.load(&counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, 800u);
}

TEST_P(DesignFixture, IsolationUnderConcurrentTransfers) {
  std::vector<std::uint64_t> accounts(32, 100);
  sim::run_parallel(sim_cfg(6), [&](int tid) {
    Rng rng(thread_seed(17, tid));
    for (int i = 0; i < 80; ++i) {
      const std::size_t a = rng.below(32), b = rng.below(32);
      if (a == b) continue;
      stm->atomically([&](Tx& tx) {
        const std::uint64_t va = tx.load(&accounts[a]);
        if (va == 0) return;
        tx.store(&accounts[a], va - 1);
        tx.store(&accounts[b], tx.load(&accounts[b]) + 1);
      });
    }
  });
  std::uint64_t total = 0;
  for (auto v : accounts) total += v;
  EXPECT_EQ(total, 3200u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DesignFixture,
    ::testing::Values(StmDesign::kWriteBackEtl, StmDesign::kWriteThroughEtl,
                      StmDesign::kCommitTimeLocking),
    [](const auto& pinfo) {
      switch (pinfo.param) {
        case StmDesign::kWriteBackEtl: return "WriteBack";
        case StmDesign::kWriteThroughEtl: return "WriteThrough";
        case StmDesign::kCommitTimeLocking: return "CommitTime";
      }
      return "?";
    });

TEST(CommitTimeLocking, StoresDoNotLockUntilCommit) {
  auto allocator = alloc::create_allocator("glibc");
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.design = StmDesign::kCommitTimeLocking;
  Stm ctl(cfg);
  alignas(8) std::uint64_t x = 1;
  // A concurrent reader between a CTL store and its commit does not see a
  // lock (encounter-time designs would abort it).
  sim::RunConfig rc;
  rc.threads = 2;
  rc.cache_model = false;
  std::atomic<int> reader_aborts{-1};
  sim::run_parallel(rc, [&](int tid) {
    if (tid == 0) {
      ctl.atomically([&](Tx& tx) {
        tx.store(&x, std::uint64_t{5});
        sim::tick(5000);  // long window before commit
      });
    } else {
      sim::tick(100);  // read inside the writer's pre-commit window
      ctl.atomically([&](Tx& tx) { tx.load(&x); });
      reader_aborts = static_cast<int>(ctl.thread_stats(1).aborts);
    }
  });
  EXPECT_EQ(x, 5u);
  // The reader may abort at most on commit-time validation, never on a
  // read-locked stripe during the window.
  EXPECT_EQ(ctl.stats().aborts_by_cause[static_cast<int>(
                AbortCause::kReadLocked)], 0u);
}

TEST(WriteThrough, MemoryUpdatedBeforeCommit) {
  auto allocator = alloc::create_allocator("glibc");
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.design = StmDesign::kWriteThroughEtl;
  Stm stm(cfg);
  alignas(8) std::uint64_t x = 1;
  stm.atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{2});
    EXPECT_EQ(x, 2u);  // write-through: memory already holds the value
  });
}

// A zombie's write-through store must not reach a block that a committed
// transaction freed: the free takes every stripe of the block, so the
// zombie finds a newer version there, fails to extend its snapshot and
// aborts before it writes. Otherwise it writes the block's next owner's
// memory, and its undo log later restores a stale value over that owner's
// bytes.
TEST(WriteThrough, ZombieDoesNotWriteAFreedBlock) {
  harness::RunContext run(harness::RunSpec{.check = check::CheckConfig{}});
  auto allocator = std::make_unique<check::CheckedAllocator>(
      alloc::create_allocator("glibc"));
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.design = StmDesign::kWriteThroughEtl;
  Stm stm(cfg);
  auto* block = static_cast<std::uint64_t*>(allocator->allocate(64));
  alignas(8) std::uint64_t slot = reinterpret_cast<std::uintptr_t>(block);
  std::uint64_t* reused = nullptr;
  sim::run_parallel(sim_cfg(2), [&](int tid) {
    if (tid == 0) {
      // The zombie: reads the pointer, then stores through it after the
      // other fiber has unlinked and freed the block.
      stm.atomically([&](Tx& tx) {
        auto* p = reinterpret_cast<std::uint64_t*>(tx.load(&slot));
        if (p == nullptr) return;
        sim::tick(10'000);
        tx.store(p, std::uint64_t{0xdead});
        sim::tick(10'000);
      });
    } else {
      sim::tick(100);
      stm.atomically([&](Tx& tx) {
        auto* p = reinterpret_cast<std::uint64_t*>(tx.load(&slot));
        tx.store(&slot, std::uint64_t{0});
        tx.free(p);
      });
      // The block's next owner writes it, then writes it again after the
      // zombie's store and before the zombie's abort.
      reused = static_cast<std::uint64_t*>(allocator->allocate(64));
      *reused = 1;
      sim::tick(10'000);
      sim::yield();
      *reused = 2;
    }
  });
  ASSERT_EQ(reused, block);  // the glibc model hands the block straight back
  EXPECT_EQ(*reused, 2u);
  EXPECT_EQ(check::summary().hard_count(), 0u);
  allocator->deallocate(reused);
}

TEST(WriteThrough, SetBenchSemanticsHold) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kRbTree;
  cfg.allocator = "tbb";
  cfg.threads = 6;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 64;
  cfg.design = StmDesign::kWriteThroughEtl;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
}

// ---------------------------------------------------------------------------
// Hybrid mode
// ---------------------------------------------------------------------------

struct HybridFixture : ::testing::Test {
  void SetUp() override { make(0.0); }
  void make(double spurious, int attempts = 3) {
    allocator = alloc::create_allocator("tcmalloc");
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.htm.enabled = true;
    cfg.htm.attempts = attempts;
    cfg.htm.spurious_abort = spurious;
    stm = std::make_unique<Stm>(cfg);
  }
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<Stm> stm;
};

TEST_F(HybridFixture, UncontendedTransactionsCommitInHardware) {
  alignas(8) std::uint64_t x = 0;
  for (int i = 0; i < 50; ++i) {
    stm->atomically([&](Tx& tx) { tx.store(&x, tx.load(&x) + 1); });
  }
  EXPECT_EQ(x, 50u);
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_commits, 50u);
  EXPECT_EQ(st.commits, 0u);  // never needed the software path
  EXPECT_EQ(st.fallbacks, 0u);
}

TEST_F(HybridFixture, CapacityOverflowFallsBackToSoftware) {
  std::vector<std::uint64_t> big(256, 0);  // > max_write_entries stripes
  stm->atomically([&](Tx& tx) {
    for (auto& w : big) tx.store(&w, std::uint64_t{1});
  });
  for (auto w : big) EXPECT_EQ(w, 1u);
  const auto st = stm->stats();
  EXPECT_GT(st.hw_aborts_by_cause[static_cast<int>(
                HwAbortCause::kCapacity)], 0u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.commits, 1u);  // the software path finished the job
}

TEST_F(HybridFixture, SpuriousAbortsAreSurvivable) {
  make(1.0, 2);  // every hardware commit aborts spuriously
  alignas(8) std::uint64_t x = 0;
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{1}); });
  EXPECT_EQ(x, 1u);
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_commits, 0u);
  EXPECT_EQ(st.hw_aborts_by_cause[static_cast<int>(
                HwAbortCause::kSpurious)], 2u);
  EXPECT_EQ(st.fallbacks, 1u);
}

TEST_F(HybridFixture, AbortedHardwareAllocationsAreReleased) {
  make(1.0, 1);
  void* hw_ptr = nullptr;
  stm->atomically([&](Tx& tx) {
    void* p = tx.malloc(64);
    if (hw_ptr == nullptr) hw_ptr = p;
  });
  // The hardware attempt's allocation went back to the allocator; the
  // software retry got the same block (tcmalloc LIFO cache).
  EXPECT_NE(hw_ptr, nullptr);
}

TEST_F(HybridFixture, ContendedCountersStayAtomic) {
  alignas(8) std::uint64_t counter = 0;
  sim::run_parallel(sim_cfg(8), [&](int) {
    for (int i = 0; i < 100; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&counter, tx.load(&counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, 800u);
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_commits + st.commits, 800u);
  EXPECT_GT(st.hw_commits, 0u);
}

TEST_F(HybridFixture, MixedHardwareSoftwareTransfersStayIsolated) {
  make(0.2);  // force frequent fallbacks so both paths run concurrently
  std::vector<std::uint64_t> accounts(16, 100);
  sim::run_parallel(sim_cfg(8), [&](int tid) {
    Rng rng(thread_seed(23, tid));
    for (int i = 0; i < 60; ++i) {
      const std::size_t a = rng.below(16), b = rng.below(16);
      if (a == b) continue;
      stm->atomically([&](Tx& tx) {
        const std::uint64_t va = tx.load(&accounts[a]);
        if (va == 0) return;
        tx.store(&accounts[a], va - 1);
        tx.store(&accounts[b], tx.load(&accounts[b]) + 1);
      });
    }
  });
  std::uint64_t total = 0;
  for (auto v : accounts) total += v;
  EXPECT_EQ(total, 1600u);
  const auto st = stm->stats();
  EXPECT_GT(st.hw_commits, 0u);
  EXPECT_GT(st.commits, 0u);  // both paths exercised
}

TEST_F(HybridFixture, SetBenchWorksInHybridMode) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kHashSet;
  cfg.allocator = "hoard";
  cfg.threads = 4;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 64;
  cfg.htm_enabled = true;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
  EXPECT_GT(res.stats.hw_commits, 0u);
}

TEST_F(HybridFixture, RestartInsideHardwareFallsThrough) {
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    ++attempts;
    if (attempts <= 4) tx.restart();  // exhausts 3 hw attempts + 1 sw abort
  });
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_aborts_by_cause[static_cast<int>(
                HwAbortCause::kExplicit)], 3u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(attempts, 5);
}

}  // namespace
}  // namespace tmx::stm
