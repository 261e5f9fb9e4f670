// Deeper properties of the simulation engine: virtual-time semantics of
// locks (busy_until propagation), advance_to, scheduling fairness across
// thread counts, and probe behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace tmx::sim {
namespace {

RunConfig cfg(int threads, bool cache = false) {
  RunConfig rc;
  rc.threads = threads;
  rc.cache_model = cache;
  return rc;
}

TEST(AdvanceTo, OnlyMovesForward) {
  run_parallel(cfg(1), [&](int) {
    tick(100);
    advance_to(50);  // backward: no-op
    EXPECT_EQ(now_cycles(), 100u);
    advance_to(500);
    EXPECT_EQ(now_cycles(), 500u);
  });
}

TEST(SpinLock, BusyUntilPropagatesThroughHandoffChains) {
  // T0 holds the lock for 10k cycles; T1 takes it next and holds for
  // another 10k; T2 must end past 20k — release times must accumulate
  // through the chain even though the sim interleaves coarsely.
  SpinLock lock;
  const RunResult r = run_parallel(cfg(3), [&](int tid) {
    tick(tid);  // fix the acquisition order 0, 1, 2
    lock.lock();
    tick(10'000);
    lock.unlock();
  });
  EXPECT_GE(r.thread_cycles[1], 20'000u);
  EXPECT_GE(r.thread_cycles[2], 30'000u);
}

TEST(SpinLock, UncontendedLockIsCheap) {
  SpinLock lock;
  const RunResult r = run_parallel(cfg(1), [&](int) {
    for (int i = 0; i < 100; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  EXPECT_LT(r.cycles, 100u * 200u);  // ~2 atomic costs per pair
}

class SchedulingSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulingSweep, EqualWorkFinishesTogether) {
  const int n = GetParam();
  const RunResult r = run_parallel(cfg(n), [&](int) {
    for (int i = 0; i < 50; ++i) {
      tick(100);
      yield();
    }
  });
  ASSERT_EQ(static_cast<int>(r.thread_cycles.size()), n);
  for (int t = 0; t < n; ++t) EXPECT_EQ(r.thread_cycles[t], 5000u);
  EXPECT_EQ(r.cycles, 5000u);  // perfect parallelism for independent work
}

TEST_P(SchedulingSweep, MakespanIsMaxNotSum) {
  const int n = GetParam();
  const RunResult r = run_parallel(cfg(n), [&](int tid) {
    tick(1000 * (tid + 1));
  });
  EXPECT_EQ(r.cycles, 1000u * n);
}

INSTANTIATE_TEST_SUITE_P(Threads, SchedulingSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16, 32));

TEST(Probe, ChargesPerLineNotPerByte) {
  RunConfig rc = cfg(1, true);
  alignas(64) static char buf[256];
  const RunResult r = run_parallel(rc, [&](int) {
    probe(buf, 64, false);       // one line
    probe(buf + 64, 128, false); // two lines
  });
  EXPECT_EQ(r.cache.accesses, 3u);
}

TEST(Probe, SequentialPhaseDoesNotPollute) {
  static int x;
  probe(&x, 4, true);  // outside run_parallel: no-op
  const RunResult r = run_parallel(cfg(2, true), [&](int) {
    probe(&x, 4, false);
  });
  EXPECT_EQ(r.cache.accesses, 2u);
}

TEST(Engine, ManyFibersBeyondCoreCountStillComplete) {
  std::atomic<int> done{0};
  run_parallel(cfg(32), [&](int) {
    for (int i = 0; i < 10; ++i) {
      tick(10);
      yield();
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 32);
}

TEST(Engine, BackToBackRunsAreIndependent) {
  const RunResult a = run_parallel(cfg(2), [&](int) { tick(100); });
  const RunResult b = run_parallel(cfg(2), [&](int) { tick(200); });
  EXPECT_EQ(a.cycles, 100u);
  EXPECT_EQ(b.cycles, 200u);
}

TEST(Engine, FibersSeeSharedMemorySequentially) {
  // Two fibers alternate incrementing; because the engine runs on one OS
  // thread, plain memory is safe between yields — the foundation the
  // whole simulation builds on.
  int counter = 0;
  run_parallel(cfg(2), [&](int) {
    for (int i = 0; i < 1000; ++i) {
      ++counter;
      if (i % 10 == 0) yield();
    }
  });
  EXPECT_EQ(counter, 2000);
}

TEST(Engine, LargeStacksSurviveDeepRecursion) {
  RunConfig rc = cfg(2);
  rc.stack_size = 1 << 20;
  std::vector<int> depths(2, 0);
  run_parallel(rc, [&](int tid) {
    // ~1000 frames with some locals each.
    struct Rec {
      static int go(int depth, int tid) {
        char pad[512];
        pad[0] = static_cast<char>(depth);
        if (depth >= 1000) return pad[0];
        if (depth % 100 == 0) yield();
        return go(depth + 1, tid) + (pad[0] != 0 ? 0 : 1);
      }
    };
    Rec::go(0, tid);
    depths[tid] = 1000;
  });
  EXPECT_EQ(depths[0], 1000);
  EXPECT_EQ(depths[1], 1000);
}

volatile std::uintptr_t g_frame_sink = 0;

TEST(Engine, LargeStacksSurviveDeepRecursionAt256Fibers) {
  // 256 fibers run on the default 256 KiB stacks, which are not zero-filled.
  // Every fiber recurses to about half of its stack, yielding on the way
  // down so all 256 deep stacks are live at once, and checks on the way back
  // up that each frame still holds the bytes it wrote.
  constexpr int kDepth = 224;  // >= 512 bytes per frame: >= 112 KiB
  std::vector<std::uintptr_t> span(256, 0);
  std::vector<int> intact(256, 0);
  run_parallel(cfg(256), [&](int tid) {
    struct Rec {
      static int go(int depth, int tid, std::uintptr_t* deepest) {
        char pad[512];
        std::memset(pad, (depth * 31 + tid) & 0xff, sizeof pad);
        // The frame escapes, so the fill and the check below must happen.
        g_frame_sink = reinterpret_cast<std::uintptr_t>(pad);
        int ok = 1;
        if (depth == kDepth) {
          *deepest = reinterpret_cast<std::uintptr_t>(pad);
        } else {
          if (depth % 16 == 0) yield();
          ok = go(depth + 1, tid, deepest);
        }
        for (char c : pad) {
          if (c != static_cast<char>((depth * 31 + tid) & 0xff)) ok = 0;
        }
        return ok;
      }
    };
    const char top = 0;
    std::uintptr_t deepest = 0;
    intact[tid] = Rec::go(0, tid, &deepest);
    span[tid] = reinterpret_cast<std::uintptr_t>(&top) - deepest;
  });
  for (int t = 0; t < 256; ++t) {
    EXPECT_EQ(intact[t], 1) << "fiber " << t;
    EXPECT_GT(span[t], std::uintptr_t{112} << 10) << "fiber " << t;
    EXPECT_LT(span[t], std::uintptr_t{224} << 10) << "fiber " << t;
  }
}

TEST(Barrier, WorksAcrossManyPhasesAndThreadCounts) {
  for (int n : {2, 3, 5, 8}) {
    Barrier b(n);
    std::vector<int> phase(n, 0);
    run_parallel(cfg(n), [&](int tid) {
      for (int p = 0; p < 10; ++p) {
        phase[tid] = p;
        b.arrive_and_wait();
        for (int t = 0; t < n; ++t) EXPECT_EQ(phase[t], p);
        b.arrive_and_wait();
      }
    });
  }
}

}  // namespace
}  // namespace tmx::sim
