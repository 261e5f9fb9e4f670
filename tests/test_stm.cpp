// STM semantics: atomicity, isolation, abort/rollback, the ORT mapping
// function, and the allocator-induced false-abort scenario of Figure 5.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include <string>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tmx::stm {
namespace {

struct StmFixture : ::testing::Test {
  void SetUp() override {
    allocator = alloc::create_allocator("glibc");
    Config cfg;
    cfg.allocator = allocator.get();
    stm = std::make_unique<Stm>(cfg);
  }
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<Stm> stm;

  sim::RunConfig sim_cfg(int threads) {
    sim::RunConfig rc;
    rc.threads = threads;
    rc.cache_model = false;
    return rc;
  }
};

// The ORT maps an address with `addr >> shift`, undefined for shifts of 64
// or more; the constructor refuses them.
TEST(StmDeathTest, ShiftOf64OrMoreIsRejected) {
  const auto allocator = alloc::create_allocator("glibc");
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.shift = 64;
  EXPECT_DEATH(Stm{cfg}, "shift < 64");
}

TEST_F(StmFixture, CommittedWriteIsVisible) {
  alignas(8) std::uint64_t x = 0;
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{42}); });
  EXPECT_EQ(x, 42u);
  EXPECT_EQ(stm->stats().commits, 1u);
}

TEST_F(StmFixture, ReadSeesPriorValue) {
  alignas(8) std::uint64_t x = 7;
  std::uint64_t seen = 0;
  stm->atomically([&](Tx& tx) { seen = tx.load(&x); });
  EXPECT_EQ(seen, 7u);
}

TEST_F(StmFixture, WriteBackIsDeferredUntilCommit) {
  alignas(8) std::uint64_t x = 1;
  stm->atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{2});
    EXPECT_EQ(x, 1u);  // raw memory untouched before commit (write-back)
    EXPECT_EQ(tx.load(&x), 2u);  // but the transaction sees its own write
  });
  EXPECT_EQ(x, 2u);
}

TEST_F(StmFixture, RestartRollsBackWrites) {
  alignas(8) std::uint64_t x = 5;
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{99});
    if (++attempts == 1) tx.restart();
  });
  EXPECT_EQ(x, 99u);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(stm->stats().aborts, 1u);
  EXPECT_EQ(stm->stats().commits, 1u);
  // Explicit restarts are tallied under their own cause, not validation.
  EXPECT_EQ(
      stm->stats().aborts_by_cause[static_cast<int>(AbortCause::kExplicit)],
      1u);
  EXPECT_EQ(
      stm->stats().aborts_by_cause[static_cast<int>(AbortCause::kValidation)],
      0u);
}

TEST_F(StmFixture, PartialWordStores) {
  struct alignas(8) S {
    std::uint32_t a;
    std::uint32_t b;
  } s{1, 2};
  stm->atomically([&](Tx& tx) {
    tx.store(&s.a, std::uint32_t{10});
    EXPECT_EQ(tx.load(&s.b), 2u);  // the other half is unaffected
    tx.store(&s.b, std::uint32_t{20});
    EXPECT_EQ(tx.load(&s.a), 10u);
  });
  EXPECT_EQ(s.a, 10u);
  EXPECT_EQ(s.b, 20u);
}

TEST_F(StmFixture, MultiWordTypes) {
  struct alignas(8) Big {
    std::uint64_t a, b, c;
  } v{1, 2, 3};
  stm->atomically([&](Tx& tx) {
    Big got = tx.load(&v);
    EXPECT_EQ(got.a, 1u);
    EXPECT_EQ(got.c, 3u);
    got.b = 22;
    tx.store(&v, got);
  });
  EXPECT_EQ(v.b, 22u);
}

TEST_F(StmFixture, PointerAccessors) {
  alignas(8) int target = 5;
  alignas(8) int* ptr = &target;
  stm->atomically([&](Tx& tx) {
    int* got = tx.load(&ptr);
    EXPECT_EQ(got, &target);
    tx.store(&ptr, static_cast<int*>(nullptr));
  });
  EXPECT_EQ(ptr, nullptr);
}

TEST_F(StmFixture, ReadOnlyTransactionsCommitWithoutClockBump) {
  alignas(8) std::uint64_t x = 1;
  stm->atomically([&](Tx& tx) { tx.load(&x); });
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{2}); });
  stm->atomically([&](Tx& tx) { tx.load(&x); });
  EXPECT_EQ(stm->stats().commits, 3u);
}

TEST_F(StmFixture, CounterIsAtomicUnderContention) {
  alignas(8) std::uint64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncr = 100;
  sim::run_parallel(sim_cfg(kThreads), [&](int) {
    for (int i = 0; i < kIncr; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&counter, tx.load(&counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIncr);
  EXPECT_GT(stm->stats().aborts, 0u);  // contention must be observable
}

TEST_F(StmFixture, BankTransferPreservesTotal) {
  // The classic TM litmus: concurrent transfers keep the sum invariant,
  // including read-only audit transactions that must see a consistent sum.
  constexpr int kAccounts = 64;
  constexpr std::uint64_t kInitial = 1000;
  std::vector<std::uint64_t> accounts(kAccounts, kInitial);
  std::atomic<int> bad_audits{0};
  sim::run_parallel(sim_cfg(8), [&](int tid) {
    Rng rng(thread_seed(3, tid));
    for (int i = 0; i < 100; ++i) {
      if (tid == 0 && i % 4 == 0) {
        std::uint64_t sum = 0;
        stm->atomically([&](Tx& tx) {
          sum = 0;
          for (int k = 0; k < kAccounts; ++k) sum += tx.load(&accounts[k]);
        });
        if (sum != kAccounts * kInitial) bad_audits.fetch_add(1);
        continue;
      }
      const std::size_t from = rng.below(kAccounts);
      const std::size_t to = rng.below(kAccounts);
      if (from == to) continue;
      stm->atomically([&](Tx& tx) {
        const std::uint64_t f = tx.load(&accounts[from]);
        if (f == 0) return;
        tx.store(&accounts[from], f - 1);
        tx.store(&accounts[to], tx.load(&accounts[to]) + 1);
      });
    }
  });
  std::uint64_t total = 0;
  for (auto v : accounts) total += v;
  EXPECT_EQ(total, kAccounts * kInitial);
  EXPECT_EQ(bad_audits.load(), 0);
}

TEST_F(StmFixture, OrtMappingMatchesThePaper) {
  // "(addr >> 5) modulo the ORT size": 32 consecutive bytes share a lock.
  const auto* base = reinterpret_cast<const void*>(0x18000020);
  const auto* same = reinterpret_cast<const void*>(0x18000027);
  const auto* next = reinterpret_cast<const void*>(0x18000040);
  EXPECT_EQ(stm->ort_index(base), stm->ort_index(same));
  EXPECT_NE(stm->ort_index(base), stm->ort_index(next));
  EXPECT_EQ(stm->ort_size(), 1u << 20);
  // The paper's Figure 5b aliasing: 0x18000020 and 0x18000030 collide.
  EXPECT_EQ(stm->ort_index(reinterpret_cast<const void*>(0x18000020)),
            stm->ort_index(reinterpret_cast<const void*>(0x18000030)));
}

TEST_F(StmFixture, Figure5FalseAbortScenario) {
  // Two logically-disjoint nodes 16 bytes apart share a versioned lock
  // (shift=5); a writer of node x forces a reader of node y to abort,
  // while 32-byte spacing (Glibc's minimum block) does not.
  auto run_case = [&](std::size_t spacing) -> std::uint64_t {
    auto mem = std::make_unique<char[]>(256 + spacing * 2);
    // Place x and y `spacing` bytes apart, 32-byte aligned start.
    char* p = reinterpret_cast<char*>(
        round_up(reinterpret_cast<std::uintptr_t>(mem.get()), 32));
    auto* x = reinterpret_cast<std::uint64_t*>(p);
    auto* y = reinterpret_cast<std::uint64_t*>(p + spacing);
    auto local_alloc = alloc::create_allocator("glibc");
    Config cfg;
    cfg.allocator = local_alloc.get();
    Stm local(cfg);
    sim::run_parallel(sim_cfg(2), [&](int tid) {
      for (int i = 0; i < 50; ++i) {
        if (tid == 0) {
          local.atomically([&](Tx& tx) {
            tx.store(x, tx.load(x) + 1);  // hold the lock across yields
            sim::tick(200);
          });
        } else {
          local.atomically([&](Tx& tx) {
            tx.load(y);
            sim::tick(200);
          });
        }
      }
    });
    return local.stats().aborts;
  };
  const std::uint64_t aborts16 = run_case(16);
  const std::uint64_t aborts32 = run_case(32);
  EXPECT_GT(aborts16, 0u);
  EXPECT_EQ(aborts32, 0u);
}

TEST_F(StmFixture, ShiftFourSeparates16ByteNeighbors) {
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.shift = 4;
  Stm s4(cfg);
  EXPECT_NE(s4.ort_index(reinterpret_cast<const void*>(0x18000020)),
            s4.ort_index(reinterpret_cast<const void*>(0x18000030)));
}

TEST_F(StmFixture, AbortCausesAreTallied) {
  alignas(8) std::uint64_t x = 0;
  sim::run_parallel(sim_cfg(4), [&](int) {
    for (int i = 0; i < 50; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&x, tx.load(&x) + 1);
        sim::tick(100);
      });
    }
  });
  const TxStats st = stm->stats();
  std::uint64_t sum = 0;
  for (int i = 0; i < kNumAbortCauses; ++i) {
    sum += st.aborts_by_cause[i];
  }
  EXPECT_EQ(sum, st.aborts);
  EXPECT_EQ(st.commits, 200u);
  EXPECT_EQ(st.starts, st.commits + st.aborts);
}

TEST_F(StmFixture, BackoffContentionManagerAlsoCompletes) {
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.cm = ContentionManager::kBackoff;
  Stm s(cfg);
  alignas(8) std::uint64_t x = 0;
  sim::run_parallel(sim_cfg(8), [&](int) {
    for (int i = 0; i < 50; ++i) {
      s.atomically([&](Tx& tx) { tx.store(&x, tx.load(&x) + 1); });
    }
  });
  EXPECT_EQ(x, 400u);

  // The backoff waits and the per-cause consecutive-abort streaks are
  // tallied and published: 8 threads pounding one word abort plenty.
  const TxStats st = s.stats();
  EXPECT_GT(st.aborts, 0u);
  EXPECT_GT(st.backoff_waits, 0u);
  EXPECT_GT(st.backoff_cycles, 0u);
  std::uint64_t max_streak = 0;
  for (int i = 0; i < kNumAbortCauses; ++i) {
    if (st.max_consec_aborts_by_cause[i] > max_streak) {
      max_streak = st.max_consec_aborts_by_cause[i];
    }
  }
  EXPECT_GT(max_streak, 0u);
  EXPECT_LE(max_streak, st.aborts);

  obs::MetricsRegistry reg;
  publish_metrics(st, reg);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("stm.backoff.waits"), std::string::npos);
  EXPECT_NE(json.find("stm.backoff.cycles"), std::string::npos);
  EXPECT_NE(json.find("stm.aborts.max_consecutive."), std::string::npos);
}

// The suicide manager never backs off: the new counters stay zero and the
// conditional metrics stay out of the JSON.
TEST_F(StmFixture, SuicideManagerPublishesNoBackoffMetrics) {
  alignas(8) std::uint64_t x = 0;
  sim::run_parallel(sim_cfg(4), [&](int) {
    for (int i = 0; i < 25; ++i) {
      stm->atomically([&](Tx& tx) { tx.store(&x, tx.load(&x) + 1); });
    }
  });
  const TxStats st = stm->stats();
  EXPECT_EQ(st.backoff_waits, 0u);
  obs::MetricsRegistry reg;
  publish_metrics(st, reg);
  EXPECT_EQ(reg.to_json().find("stm.backoff."), std::string::npos);
}

TEST_F(StmFixture, WorksUnderRealThreadsToo) {
  alignas(8) std::uint64_t counter = 0;
  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Threads;
  rc.threads = 4;
  sim::run_parallel(rc, [&](int) {
    for (int i = 0; i < 2000; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&counter, tx.load(&counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, 8000u);
}

// --- The abort path: a conflict dooms the attempt, the body jumps back to
// atomically's checkpoint, and atomically rolls back and retries. ---

// A 24-byte value whose three words sit on three stripes (shift = 3), and
// a second thread that holds the middle word's stripe for 10k cycles.
struct MidWordConflict {
  struct alignas(8) Big {
    std::uint64_t a, b, c;
  };
  std::unique_ptr<alloc::Allocator> allocator =
      alloc::create_allocator("glibc");
  std::unique_ptr<Stm> stm;
  Big v{1, 2, 3};

  MidWordConflict() {
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.shift = 3;
    stm = std::make_unique<Stm>(cfg);
  }

  // Runs `body` on thread 1 while thread 0 holds v.b's stripe.
  template <typename F>
  void run(F body) {
    sim::RunConfig rc;
    rc.threads = 2;
    rc.cache_model = false;
    sim::run_parallel(rc, [&](int tid) {
      if (tid == 0) {
        stm->atomically([&](Tx& tx) {
          tx.store(&v.b, std::uint64_t{22});
          sim::tick(10000);
        });
      } else {
        sim::tick(1000);  // start once thread 0 owns the stripe
        stm->atomically(body);
      }
    });
  }
};

TEST(StmAbortPath, ConflictOnTheSecondWordOfALoadStopsTheAttempt) {
  MidWordConflict f;
  MidWordConflict::Big seen{};
  f.run([&](Tx& tx) { seen = tx.load(&f.v); });
  const TxStats& st = f.stm->thread_stats(1);
  ASSERT_GE(st.aborts, 1u);
  EXPECT_EQ(st.aborts_by_cause[static_cast<int>(AbortCause::kReadLocked)],
            st.aborts);
  // Every aborted attempt read a and b, never c; the committed one all 3.
  EXPECT_EQ(st.reads, 2 * st.aborts + 3);
  EXPECT_EQ(seen.a, 1u);
  EXPECT_EQ(seen.b, 22u);
  EXPECT_EQ(seen.c, 3u);
}

TEST(StmAbortPath, ConflictOnTheSecondWordOfAStoreStopsTheAttempt) {
  MidWordConflict f;
  f.run([&](Tx& tx) { tx.store(&f.v, MidWordConflict::Big{7, 8, 9}); });
  const TxStats& st = f.stm->thread_stats(1);
  ASSERT_GE(st.aborts, 1u);
  EXPECT_EQ(st.aborts_by_cause[static_cast<int>(AbortCause::kWriteLocked)],
            st.aborts);
  EXPECT_EQ(st.writes, 2 * st.aborts + 3);
  EXPECT_EQ(f.v.a, 7u);
  EXPECT_EQ(f.v.b, 8u);
  EXPECT_EQ(f.v.c, 9u);
}

// Fails the next `fail_next` allocations: an injected OOM.
class OomInjector final : public alloc::Allocator {
 public:
  explicit OomInjector(alloc::Allocator& inner) : inner_(inner) {}
  void* allocate(std::size_t size) override {
    if (fail_next > 0) {
      --fail_next;
      return nullptr;
    }
    return inner_.allocate(size);
  }
  void deallocate(void* p) override { inner_.deallocate(p); }
  std::size_t usable_size(const void* p) const override {
    return inner_.usable_size(p);
  }
  const alloc::AllocatorTraits& traits() const override {
    return inner_.traits();
  }
  int fail_next = 0;

 private:
  alloc::Allocator& inner_;
};

// Tx::malloc called directly returns nullptr when it dooms the attempt;
// the store into that block does nothing and leaves for the checkpoint.
TEST(StmAbortPath, DirectMallocUnderOomRollsBackAndRetries) {
  auto backing = alloc::create_allocator("glibc");
  OomInjector oom(*backing);
  oom.fail_next = 1;
  Config cfg;
  cfg.allocator = &oom;
  Stm s(cfg);
  alignas(8) std::uint64_t x = 0;
  std::uint64_t* block = nullptr;
  int attempts = 0;
  s.atomically([&](Tx& tx) {
    ++attempts;
    tx.store(&x, tx.load(&x) + 1);
    block = static_cast<std::uint64_t*>(tx.malloc(sizeof(std::uint64_t)));
    tx.store(block, std::uint64_t{42});
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(x, 1u);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(*block, 42u);
  s.seq_free(block);

  const TxStats st = s.stats();
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.aborts, 1u);
  EXPECT_EQ(st.oom_nulls, 1u);
  obs::MetricsRegistry reg;
  publish_metrics(st, reg);
  EXPECT_EQ(reg.counter("stm.oom.aborts"), 1u);
}

// Each jump returns the fiber's stack to where the checkpoint left it:
// 100k restarts fit a 256 KiB stack.
TEST(StmAbortPath, RestartsDoNotGrowTheStack) {
  auto backing = alloc::create_allocator("glibc");
  Config cfg;
  cfg.allocator = backing.get();
  Stm s(cfg);
  constexpr int kRestarts = 100000;
  int attempts = 0;
  sim::RunConfig rc;
  rc.threads = 1;
  rc.cache_model = false;
  rc.stack_size = 256 * 1024;
  sim::run_parallel(rc, [&](int) {
    s.atomically([&](Tx& tx) {
      if (attempts++ < kRestarts) tx.restart();
    });
  });
  EXPECT_EQ(attempts, kRestarts + 1);
  EXPECT_EQ(s.stats().aborts, static_cast<std::uint64_t>(kRestarts));
  EXPECT_EQ(s.stats().commits, 1u);
}

// The checkpoint lives on atomically's frame and a descriptor keeps its
// slot.
TEST(StmAbortPath, DescriptorKeepsItsPaddedSize) {
  EXPECT_EQ(sizeof(Padded<Tx>), 2048u);
}

TEST_F(StmFixture, StatsResetWorks) {
  alignas(8) std::uint64_t x = 0;
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{1}); });
  EXPECT_GT(stm->stats().commits, 0u);
  stm->reset_stats();
  EXPECT_EQ(stm->stats().commits, 0u);
  EXPECT_EQ(stm->stats().starts, 0u);
}

}  // namespace
}  // namespace tmx::stm
