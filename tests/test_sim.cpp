#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace tmx::sim {
namespace {

RunConfig sim_cfg(int threads) {
  RunConfig rc;
  rc.kind = EngineKind::Sim;
  rc.threads = threads;
  rc.cache_model = false;
  return rc;
}

TEST(FiberEngine, RunsEveryThreadOnce) {
  std::vector<int> hits(8, 0);
  const RunResult r = run_parallel(sim_cfg(8), [&](int tid) { ++hits[tid]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_TRUE(r.simulated);
}

TEST(FiberEngine, SelfTidMatchesInsideBody) {
  run_parallel(sim_cfg(4), [&](int tid) { EXPECT_EQ(self_tid(), tid); });
  EXPECT_EQ(self_tid(), 0);  // main thread is tid 0 outside
}

TEST(FiberEngine, TickAdvancesVirtualTime) {
  const RunResult r = run_parallel(sim_cfg(3), [&](int tid) {
    tick(100 * (tid + 1));
  });
  ASSERT_EQ(r.thread_cycles.size(), 3u);
  EXPECT_EQ(r.thread_cycles[0], 100u);
  EXPECT_EQ(r.thread_cycles[1], 200u);
  EXPECT_EQ(r.thread_cycles[2], 300u);
  EXPECT_EQ(r.cycles, 300u);  // makespan = max
}

TEST(FiberEngine, MakespanToSeconds) {
  RunConfig rc = sim_cfg(1);
  rc.ghz = 2.0;
  const RunResult r = run_parallel(rc, [&](int) { tick(2'000'000'000); });
  EXPECT_NEAR(r.seconds, 1.0, 1e-9);
}

TEST(FiberEngine, MinVtimeSchedulingInterleavesFairly) {
  // Two fibers alternate: with equal per-step costs, neither can get two
  // full steps ahead of the other.
  std::vector<int> order;
  run_parallel(sim_cfg(2), [&](int tid) {
    for (int i = 0; i < 5; ++i) {
      order.push_back(tid);
      tick(10);
      yield();
    }
  });
  ASSERT_EQ(order.size(), 10u);
  int count0 = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    count0 += (order[i] == 0);
    const int count1 = static_cast<int>(i) + 1 - count0;
    EXPECT_LE(std::abs(count0 - count1), 2) << "at step " << i;
  }
}

TEST(FiberEngine, DeterministicAcrossRuns) {
  auto run_once = [] {
    std::vector<int> order;
    run_parallel(sim_cfg(4), [&](int tid) {
      for (int i = 0; i < 10; ++i) {
        order.push_back(tid);
        tick(7 + tid);
        yield();
      }
    });
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FiberEngine, HooksAreNoopsOutside) {
  EXPECT_FALSE(in_sim());
  tick(1000);
  yield();
  relax();
  EXPECT_EQ(now_cycles(), 0u);
  static int dummy = 0;
  EXPECT_EQ(probe(&dummy, 8, false), 0u);
}

// The scheduler contract: a fiber runs only while its (vtime, id) key is no
// larger than the key of every unfinished fiber. Bodies publish their key in
// a shared table (indexed by id) before each yield and tick pseudo-random
// multiples of 10 cycles, zero included, so equal vtimes — broken by id —
// are common. Returns the number of contract violations seen after resumes.
std::uint64_t run_contract_check(const RunConfig& rc, int yields,
                                 RunResult* out) {
  struct Published {
    std::uint64_t vtime = 0;
    bool finished = false;
  };
  const int n = rc.threads;
  std::vector<Published> table(static_cast<std::size_t>(n));
  std::uint64_t violations = 0;
  const auto check = [&](int tid) {
    const std::uint64_t v = now_cycles();
    for (int j = 0; j < n; ++j) {
      const Published& p = table[static_cast<std::size_t>(j)];
      if (j == tid || p.finished) continue;
      if (p.vtime < v || (p.vtime == v && j < tid)) ++violations;
    }
  };
  *out = run_parallel(rc, [&](int tid) {
    std::uint64_t x =
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(tid + 1);
    check(tid);
    for (int i = 0; i < yields; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      tick(10 * (x % 4));
      table[static_cast<std::size_t>(tid)].vtime = now_cycles();
      yield();
      check(tid);
    }
    table[static_cast<std::size_t>(tid)].finished = true;
  });
  return violations;
}

TEST(Scheduler, RunsTheMinimumKeyAtEveryResume) {
  for (int n : {4, 64, 256}) {
    RunResult r;
    EXPECT_EQ(run_contract_check(sim_cfg(n), 12800 / n, &r), 0u)
        << n << " fibers";
    EXPECT_GT(r.sched.switches, static_cast<std::uint64_t>(n)) << n;
  }
}

TEST(Scheduler, RunsTheMinimumKeyOnMultiplexedCores) {
  // 64 fibers on 2 nodes x 4 cores: eight fibers share every core.
  RunConfig rc = sim_cfg(64);
  rc.topology.nodes = 2;
  rc.topology.cores_per_node = 4;
  RunResult r;
  EXPECT_EQ(run_contract_check(rc, 200, &r), 0u);
  EXPECT_GT(r.sched.queue_migrations, 0u);
}

TEST(Scheduler, CountersPinnedAt256Fibers) {
  // Scheduler counters of one 256-fiber contract run, recorded before the
  // run structure became a single heap. heap_ops is not pinned: it counts
  // operations of whichever heap the scheduler uses.
  RunResult r;
  ASSERT_EQ(run_contract_check(sim_cfg(256), 50, &r), 0u);
  EXPECT_EQ(r.sched.switches, 9848u);
  EXPECT_EQ(r.sched.fast_resumes, 3208u);
  EXPECT_EQ(r.sched.queue_migrations, 9847u);
  EXPECT_EQ(r.sched.batch_advances, 2432u);
}

TEST(ThreadEngine, RunsAllThreadsAndMeasuresWallTime) {
  RunConfig rc;
  rc.kind = EngineKind::Threads;
  rc.threads = 4;
  std::atomic<int> count{0};
  const RunResult r = run_parallel(rc, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
  EXPECT_FALSE(r.simulated);
  EXPECT_GE(r.seconds, 0.0);
}

TEST(SpinLock, MutualExclusionUnderFibers) {
  SpinLock lock;
  int counter = 0;
  run_parallel(sim_cfg(8), [&](int) {
    for (int i = 0; i < 100; ++i) {
      SpinGuard g(lock);
      const int c = counter;
      yield();  // adversarial: yield inside the critical section
      counter = c + 1;
    }
  });
  EXPECT_EQ(counter, 800);
}

TEST(SpinLock, ContentionCostsVirtualTime) {
  SpinLock lock;
  // Thread 0 holds the lock for a long virtual time; thread 1 must wait.
  RunResult r = run_parallel(sim_cfg(2), [&](int tid) {
    if (tid == 0) {
      lock.lock();
      tick(10'000);
      lock.unlock();
    } else {
      tick(1);  // let thread 0 acquire first (ties break by id)
      lock.lock();
      lock.unlock();
    }
  });
  EXPECT_GE(r.thread_cycles[1], 10'000u);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  SpinLock lock;
  run_parallel(sim_cfg(2), [&](int tid) {
    if (tid == 0) {
      ASSERT_TRUE(lock.try_lock());
      tick(1000);
      yield();
      lock.unlock();
    } else {
      tick(10);
      EXPECT_FALSE(lock.try_lock());
    }
  });
}

TEST(Barrier, SynchronizesFibers) {
  Barrier barrier(4);
  std::atomic<int> before{0};
  run_parallel(sim_cfg(4), [&](int tid) {
    tick(tid * 1000);  // arrive at very different virtual times
    before.fetch_add(1);
    barrier.arrive_and_wait();
    EXPECT_EQ(before.load(), 4);
  });
}

TEST(Barrier, ReusableAcrossPhases) {
  Barrier barrier(3);
  std::atomic<int> phase_sum{0};
  run_parallel(sim_cfg(3), [&](int tid) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_sum.fetch_add(1);
      barrier.arrive_and_wait();
      EXPECT_EQ(phase_sum.load(), 3 * (phase + 1));
      barrier.arrive_and_wait();
    }
    (void)tid;
  });
}

TEST(FiberEngine, ExceptionsUnwindWithinFiber) {
  int caught = 0;
  run_parallel(sim_cfg(2), [&](int) {
    try {
      yield();
      throw 42;
    } catch (int v) {
      caught += v;
    }
  });
  EXPECT_EQ(caught, 84);
}

TEST(FiberEngine, ProbeChargesLatency) {
  RunConfig rc = sim_cfg(1);
  rc.cache_model = true;
  static int target;
  const RunResult r = run_parallel(rc, [&](int) {
    const std::uint64_t lat1 = probe(&target, 4, false);  // cold: miss
    const std::uint64_t lat2 = probe(&target, 4, false);  // warm: L1 hit
    EXPECT_GT(lat1, lat2);
  });
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.cache.accesses, 2u);
  EXPECT_EQ(r.cache.l1_misses, 1u);
  EXPECT_EQ(r.cache.l1_hits, 1u);
}

}  // namespace
}  // namespace tmx::sim
