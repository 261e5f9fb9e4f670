// tmx::phase — slab bump/reuse, the epoch protocol, whole-phase reclaim,
// and straggler compaction (forwarding, vetoes, graceful remap refusal).
//
// Everything here drives the allocator directly through its hint API, the
// way the STM does, so each protocol step is observable in isolation. The
// tests run outside the simulator and use force_quiesce() — the explicit
// quiescent point for provably single-threaded callers — where the STM
// would prove quiescence itself. Full-stack behavior (STM + checker +
// compaction) lives in test_check.cpp and the AllocatorContract suite.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "harness/run_context.hpp"
#include "phase/phase.hpp"

namespace tmx::phase {
namespace {

struct Moves {
  std::vector<std::pair<void*, void*>> v;
};

void record_move(void* from, void* to, std::size_t, void* ctx) {
  static_cast<Moves*>(ctx)->v.emplace_back(from, to);
}

TEST(PhaseAlloc, BumpIsLifoAndRollsBack) {
  PhaseAllocator a{PhaseConfig{}};
  void* p1 = a.allocate(40);
  void* p2 = a.allocate(40);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_GE(a.usable_size(p1), 40u);

  // Freeing the top block rolls the bump pointer back, so the next
  // same-size allocation reuses the exact address.
  a.deallocate(p2);
  void* p3 = a.allocate(40);
  EXPECT_EQ(p3, p2);

  a.deallocate(p3);
  a.deallocate(p1);
  EXPECT_EQ(a.live_bytes(), 0u);
}

TEST(PhaseAlloc, EpochAdvancesOnCommitsAndWholePhaseReclaims) {
  PhaseConfig pc;
  pc.commits_per_epoch = 1;
  PhaseAllocator a(pc);

  a.tx_begin_hint(0);
  void* p = a.allocate(64);
  ASSERT_NE(p, nullptr);
  a.tx_commit_hint(0);
  EXPECT_EQ(a.current_epoch(), 1u);

  // Allocating in the new epoch re-homes the cached bump slab, dropping
  // the pin that kept phase 0 alive; p's death then leaves it empty.
  void* q = a.allocate(64);
  a.deallocate(p);
  const std::size_t before = a.os_reserved();
  EXPECT_GT(before, 0u);

  a.force_quiesce();
  const PhaseStats st = a.stats();
  EXPECT_GE(st.phases_reclaimed, 1u);
  EXPECT_GE(st.slabs_reclaimed, 1u);
  EXPECT_LT(a.os_reserved(), before);
  a.deallocate(q);
}

TEST(PhaseAlloc, InflightTransactionPinsItsEpoch) {
  PhaseConfig pc;
  pc.commits_per_epoch = 1;
  PhaseAllocator a(pc);

  a.tx_begin_hint(1);  // thread 1 snapshots epoch 0 and stays in flight
  a.tx_begin_hint(0);
  void* p = a.allocate(16);
  a.tx_commit_hint(0);  // epoch -> 1, phase 0 retired
  a.deallocate(p);
  void* q = a.allocate(16);  // detach from the phase-0 slab

  // Thread 1's snapshot keeps the minimum in-flight epoch at 0: the
  // retired phase could still receive its allocations and must survive.
  a.force_quiesce();
  EXPECT_EQ(a.stats().phases_reclaimed, 0u);

  a.tx_commit_hint(1);
  a.force_quiesce();
  EXPECT_GE(a.stats().phases_reclaimed, 1u);
  a.deallocate(q);
}

TEST(PhaseAlloc, LargeBlocksKeepReservationUntilPhaseReclaim) {
  PhaseConfig pc;
  pc.commits_per_epoch = 1;
  PhaseAllocator a(pc);

  void* p = a.allocate(40 * 1024);  // > slab_bytes/2: dedicated reservation
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 40u * 1024);
  std::memset(p, 0xab, 40 * 1024);

  a.tx_begin_hint(0);
  a.tx_commit_hint(0);  // retire epoch 0
  a.deallocate(p);
  // Zombie-read safety: the freed reservation stays mapped until its phase
  // reclaims, so stale optimistic reads land on mapped memory.
  const std::size_t still = a.os_reserved();
  EXPECT_GE(still, 40u * 1024);

  a.force_quiesce();
  EXPECT_LT(a.os_reserved(), still);
  EXPECT_GE(a.stats().phases_reclaimed, 1u);
}

TEST(PhaseAlloc, CompactAllMovesStragglersAndForwardsFrees) {
  PhaseConfig pc;
  pc.commits_per_epoch = 1;
  pc.compact = PhaseConfig::Compact::kAll;
  PhaseAllocator a(pc);
  Moves moves;
  a.set_relocation_listener(&record_move, &moves);

  a.tx_begin_hint(0);
  void* p = a.allocate(48);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x77, 48);
  void* dead = a.allocate(48);
  a.tx_commit_hint(0);  // epoch -> 1, phase 0 retired
  a.deallocate(dead);

  a.force_quiesce();
  const PhaseStats st = a.stats();
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(st.blocks_relocated, 1u);
  EXPECT_GE(st.phases_reclaimed, 1u);  // compaction emptied phase 0
  ASSERT_EQ(moves.v.size(), 1u);
  EXPECT_EQ(moves.v[0].first, p);
  void* np = moves.v[0].second;
  ASSERT_NE(np, nullptr);
  ASSERT_NE(np, p);
  for (int i = 0; i < 48; ++i) {
    ASSERT_EQ(static_cast<unsigned char*>(np)[i], 0x77) << "byte " << i;
  }

  // The stale pointer keeps working through the forwarding map: the phase
  // slabs behind it are gone, but usable_size and deallocate resolve to
  // the moved block without touching the old range.
  EXPECT_GE(a.usable_size(p), 48u);
  a.deallocate(p);
  EXPECT_EQ(a.live_bytes(), 0u);
}

TEST(PhaseAlloc, CheckedCompactionWithoutBridgeVetoesEverything) {
  // No checker is open on the idle run context: nothing is proven private.
  PhaseConfig pc;
  pc.commits_per_epoch = 1;
  pc.compact = PhaseConfig::Compact::kChecked;
  PhaseAllocator a(pc);

  a.tx_begin_hint(0);
  void* p = a.allocate(48);
  a.tx_commit_hint(0);

  a.force_quiesce();
  const PhaseStats st = a.stats();
  EXPECT_EQ(st.blocks_relocated, 0u);
  EXPECT_GE(st.relocation_vetoes, 1u);
  EXPECT_EQ(st.phases_reclaimed, 0u);  // the straggler stays, so its phase does
  a.deallocate(p);
}

TEST(PhaseAlloc, RefusedRemapLeavesLargeStragglerInPlace) {
  PhaseConfig pc;
  pc.commits_per_epoch = 1;
  pc.compact = PhaseConfig::Compact::kAll;
  PhaseAllocator a(pc);

  a.tx_begin_hint(0);
  void* p = a.allocate(40 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x3c, 64);
  a.tx_commit_hint(0);

  fault::FaultPlan plan;
  plan.reserve_rate = 1.0;  // the fault plane refuses every new mapping
  {
    const harness::RunContext faulty({.fault = plan});
    a.force_quiesce();
  }

  const PhaseStats st = a.stats();
  EXPECT_GE(st.remap_refusals, 1u);
  EXPECT_EQ(st.blocks_relocated, 0u);
  // Graceful degradation: the straggler stayed put, contents intact.
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(static_cast<unsigned char*>(p)[i], 0x3c) << "byte " << i;
  }
  EXPECT_GE(a.usable_size(p), 40u * 1024);
  a.deallocate(p);
  a.force_quiesce();
  EXPECT_GE(a.stats().phases_reclaimed, 1u);
}

}  // namespace
}  // namespace tmx::phase
