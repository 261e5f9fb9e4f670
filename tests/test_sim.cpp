#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/address_space.hpp"
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
std::uint64_t run_contract_check(const RunConfig& rc,
                                 const std::function<int(int)>& yields,
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
    for (int i = 0; i < yields(tid); ++i) {
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
  // The run queue is a winner tree whose leaves are the fiber count
  // rounded up to a power of two: 3, 5, 6, 7, 9, 100, 129 and 255 fibers
  // leave padding leaves beside the real ones, and 1 fiber is a tree of
  // one leaf.
  for (int n : {1, 2, 3, 4, 5, 6, 7, 9, 64, 100, 129, 255, 256}) {
    RunResult r;
    EXPECT_EQ(run_contract_check(sim_cfg(n), [n](int) { return 12800 / n; },
                                 &r),
              0u)
        << n << " fibers";
    if (n > 1) {
      EXPECT_GT(r.sched.switches, static_cast<std::uint64_t>(n)) << n;
    }
  }
}

TEST(Scheduler, RunsTheMinimumKeyAfterStaggeredFinishes) {
  // Fiber 0 and the highest id, the leftmost and rightmost leaves, finish
  // early while the others keep yielding, so the run goes on with finished
  // leaves at both edges of the tree.
  for (int n : {2, 3, 9, 100, 129, 256}) {
    const auto yields = [n](int tid) {
      return tid == 0 || tid == n - 1 ? 3 : 6400 / n;
    };
    RunResult r;
    EXPECT_EQ(run_contract_check(sim_cfg(n), yields, &r), 0u)
        << n << " fibers";
    // Every fiber is entered once and every yield resumes once, in place
    // or by a switch back to it.
    auto resumes = static_cast<std::uint64_t>(n);
    for (int t = 0; t < n; ++t) {
      resumes += static_cast<std::uint64_t>(yields(t));
    }
    EXPECT_EQ(r.sched.switches + r.sched.fast_resumes, resumes) << n;
  }
}

// A scheduling key packs vtime << 8 | id into one word, so the largest
// virtual time it carries is 2^56 - 1.
constexpr std::uint64_t kMaxKeyVtime = (std::uint64_t{1} << 56) - 1;

TEST(Scheduler, KeysAtTheTopOfTheRangeStillOrder) {
  // Fibers 1, 2 and 255 climb to the largest virtual time, where they
  // order by id. Fiber 255's key there is all ones, and its last yield,
  // with nothing left to run, must resume it in place.
  std::vector<int> order;
  const RunResult r = run_parallel(sim_cfg(256), [&](int tid) {
    if (tid != 1 && tid != 2 && tid != 255) return;
    tick(kMaxKeyVtime);
    for (int i = 0; i < 2; ++i) {
      order.push_back(tid);
      yield();
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 255, 1, 2, 255}));
  // 256 seeds plus the three first yields; the three last yields resume
  // in place.
  EXPECT_EQ(r.sched.switches, 259u);
  EXPECT_EQ(r.sched.fast_resumes, 3u);
}

TEST(SchedulerDeathTest, VtimePastTheKeyRangeTripsTheWatchdog) {
  // One cycle past the largest key: the next scheduling point exits loudly
  // instead of packing a key that would sort before every other.
  EXPECT_EXIT(run_parallel(sim_cfg(2),
                           [](int tid) {
                             if (tid == 1) tick(kMaxKeyVtime + 1);
                             yield();
                           }),
              ::testing::ExitedWithCode(kWatchdogExitCode),
              "scheduling-key virtual-cycle budget breached");
}

TEST(Scheduler, RunsTheMinimumKeyOnMultiplexedCores) {
  // 64 fibers on 2 nodes x 4 cores: eight fibers share every core.
  RunConfig rc = sim_cfg(64);
  rc.topology.nodes = 2;
  rc.topology.cores_per_node = 4;
  RunResult r;
  EXPECT_EQ(run_contract_check(rc, [](int) { return 200; }, &r), 0u);
  EXPECT_GT(r.sched.queue_migrations, 0u);
}

TEST(Scheduler, CountersPinnedAt256Fibers) {
  // Scheduler counters of one 256-fiber contract run, recorded before the
  // run structure became a single heap. heap_ops counts one run-queue
  // update per resume, so it equals switches whatever the queue's shape.
  RunResult r;
  ASSERT_EQ(run_contract_check(sim_cfg(256), [](int) { return 50; }, &r), 0u);
  EXPECT_EQ(r.sched.switches, 9848u);
  EXPECT_EQ(r.sched.heap_ops, 9848u);
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

// SpinLock with relax() unrolled into its single turns, each one tick of
// Cost::kSpin and one scheduling point: the schedule a collapsed spin must
// reproduce exactly.
class TurnByTurnLock {
 public:
  void lock() {
    tick(Cost::kAtomicRmw);
    while (std::exchange(locked_, true)) {
      do {
        tick(Cost::kSpin);
        yield();
      } while (locked_);
      tick(Cost::kAtomicRmw);
    }
    advance_to(busy_until_);
    yield();
  }
  void unlock() {
    busy_until_ = std::max(busy_until_, now_cycles());
    locked_ = false;
  }

 private:
  bool locked_ = false;
  std::uint64_t busy_until_ = 0;
};

// Fibers contend on one lock per eight of them. All costs are multiples of
// 10 cycles and spin turns land on a 20-cycle grid, so a spinning fiber
// often reaches a queued fiber's exact vtime and the tie goes by id.
template <typename Lock>
RunResult contended_locks(int threads) {
  std::vector<Lock> locks(static_cast<std::size_t>((threads + 7) / 8));
  return run_parallel(sim_cfg(threads), [&](int tid) {
    std::uint64_t x =
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(tid + 1);
    for (int i = 0; i < 6; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      Lock& l = locks[(static_cast<std::size_t>(tid) + x) % locks.size()];
      tick(10 * (x % 8));
      l.lock();
      tick(20 * ((x >> 8) % 40));
      yield();
      l.unlock();
    }
  });
}

TEST(SpinLock, CollapsedSpinsScheduleLikeSingleTurns) {
  for (int n : {2, 8, 256}) {
    const RunResult got = contended_locks<SpinLock>(n);
    const RunResult want = contended_locks<TurnByTurnLock>(n);
    EXPECT_GT(want.sched.fast_resumes, 0u) << n << " fibers";
    EXPECT_EQ(got.sched.switches, want.sched.switches) << n;
    EXPECT_EQ(got.sched.fast_resumes, want.sched.fast_resumes) << n;
    EXPECT_EQ(got.sched.heap_ops, want.sched.heap_ops) << n;
    EXPECT_EQ(got.sched.queue_migrations, want.sched.queue_migrations) << n;
    EXPECT_EQ(got.sched.batch_advances, want.sched.batch_advances) << n;
    EXPECT_EQ(got.thread_cycles, want.thread_cycles) << n;
    EXPECT_EQ(got.cycles, want.cycles) << n;
  }
}

// Spins that never end, under a 10000-cycle budget. Here fiber 0 takes
// lock `a` and returns without releasing it; fiber 1 spins on `a` alone
// once fiber 0 has finished, and trips at its first turn past the budget,
// 70 + 497 * 20 = 10010. Only the budget bounds that spin.
template <typename Lock>
void spin_on_a_finished_holder() {
  RunConfig rc = sim_cfg(2);
  rc.watchdog_cycles = 10'000;
  Lock a;
  run_parallel(rc, [&](int tid) {
    if (tid == 1) tick(30);
    a.lock();
  });
}

// Here fiber 0 holds `a` and waits for `b`, fiber 1 holds `b` and waits for
// `a`. Fiber 0 yields at exactly the budget, 10000, so fiber 1's spin ends
// in a tie at 10000 that fiber 0, the lower id, wins: fiber 0 trips at
// 10040, after its exchange and one turn, while fiber 1 stays at 10000.
template <typename Lock>
void spin_in_a_deadlock() {
  RunConfig rc = sim_cfg(2);
  rc.watchdog_cycles = 10'000;
  Lock a;
  Lock b;
  run_parallel(rc, [&](int tid) {
    (tid == 0 ? a : b).lock();
    tick(tid == 0 ? 10'000 - 20 : 20);
    yield();
    (tid == 0 ? b : a).lock();
  });
}

TEST(SpinLockDeathTest, CollapsedSpinsTripLikeSingleTurns) {
  const char* const finished =
      "budget breached \\(limit=10000, now=10010\\)\n"
      "  fiber 0: vtime=20 \\(finished\\)\n"
      "  fiber 1: vtime=10010 \\(running\\)\n";
  EXPECT_EXIT(spin_on_a_finished_holder<TurnByTurnLock>(),
              ::testing::ExitedWithCode(kWatchdogExitCode), finished);
  EXPECT_EXIT(spin_on_a_finished_holder<SpinLock>(),
              ::testing::ExitedWithCode(kWatchdogExitCode), finished);
  const char* const deadlock =
      "budget breached \\(limit=10000, now=10040\\)\n"
      "  fiber 0: vtime=10040 \\(running\\)\n"
      "  fiber 1: vtime=10000\n";
  EXPECT_EXIT(spin_in_a_deadlock<TurnByTurnLock>(),
              ::testing::ExitedWithCode(kWatchdogExitCode), deadlock);
  EXPECT_EXIT(spin_in_a_deadlock<SpinLock>(),
              ::testing::ExitedWithCode(kWatchdogExitCode), deadlock);
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

// ---- Address space ----

using End = AddressSpace::End;

std::uintptr_t offset_of(const AddressSpace& space, const void* p) {
  return space.offset(reinterpret_cast<std::uintptr_t>(p));
}

TEST(AddressSpace, BaseIsAlignedToTheRegionSize) {
  AddressSpace space;
  EXPECT_EQ(space.base(), 0u);
  void* p = space.carve(1, AddressSpace::kPage, End::kBase);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(space.base() % AddressSpace::kBytes, 0u);
  EXPECT_TRUE(space.contains(reinterpret_cast<std::uintptr_t>(p)));
  EXPECT_FALSE(space.contains(reinterpret_cast<std::uintptr_t>(&space)));
  space.release(p, 1);
}

TEST(AddressSpace, CarvesFromEachEndAligned) {
  AddressSpace space;
  auto* lo = static_cast<char*>(space.carve(100, 1 << 21, End::kBase));
  auto* hi = static_cast<char*>(space.carve(3 << 20, 1 << 26, End::kTop));
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(offset_of(space, lo), 0u);
  EXPECT_EQ(offset_of(space, hi),
            AddressSpace::kBytes - (std::size_t{1} << 26));
  lo[4095] = 1;  // read-write and zeroed
  EXPECT_EQ(hi[(3 << 20) - 1], 0);
  // A page-aligned carve fills the gap beside its end's last carve.
  void* next = space.carve(1, AddressSpace::kPage, End::kBase);
  EXPECT_EQ(offset_of(space, next), AddressSpace::kPage);
  space.release(next, 1);
  space.release(lo, 100);
  space.release(hi, 3 << 20);
}

TEST(AddressSpace, ReleasedRangesCoalesceAndAreReusedFirstFit) {
  AddressSpace space;
  void* a = space.carve(8192, AddressSpace::kPage, End::kBase);
  void* b = space.carve(4096, AddressSpace::kPage, End::kBase);
  void* c = space.carve(4096, AddressSpace::kPage, End::kBase);
  space.release(a, 8192);
  space.release(b, 4096);  // merges with a's range
  void* d = space.carve(12288, AddressSpace::kPage, End::kBase);
  EXPECT_EQ(d, a);
  space.release(d, 12288);
  space.release(c, 4096);
  // Everything returned: the next carve lands where the first did.
  EXPECT_EQ(space.carve(4096, AddressSpace::kPage, End::kBase), a);
}

TEST(AddressSpace, ARangeCarvedAgainReadsZero) {
  // make_region_array relies on this: whatever an earlier carve left in a
  // range, carving it again yields all-zero bytes.
  AddressSpace space;
  constexpr std::size_t kLen = 5 * AddressSpace::kPage;
  auto* first = static_cast<unsigned char*>(
      space.carve(kLen, AddressSpace::kPage, End::kBase));
  ASSERT_NE(first, nullptr);
  for (std::size_t i = 0; i < kLen; ++i) first[i] = 0xa5;
  space.release(first, kLen);
  auto* again = static_cast<unsigned char*>(
      space.carve(kLen, AddressSpace::kPage, End::kBase));
  ASSERT_EQ(again, first);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < kLen; ++i) nonzero += again[i] != 0;
  EXPECT_EQ(nonzero, 0u);
  space.release(again, kLen);
}

TEST(AddressSpace, RefusesWhatDoesNotFit) {
  AddressSpace space;
  EXPECT_EQ(space.carve(AddressSpace::kBytes + 1, AddressSpace::kPage,
                        End::kTop),
            nullptr);
}

TEST(AddressSpace, FiberStacksComeFromTheRunContext) {
  RunConfig rc = sim_cfg(2);
  rc.stack_size = 64 << 10;
  std::uintptr_t local[2] = {};
  run_parallel(rc, [&](int tid) {
    std::uint64_t on_stack = 0;
    local[tid] = reinterpret_cast<std::uintptr_t>(&on_stack);
  });
  for (std::uintptr_t a : local) EXPECT_TRUE(context().space.contains(a));
}

}  // namespace
}  // namespace tmx::sim
