// Fragmentation and footprint properties of the allocator models: churn
// must reach a steady state, free space must be reusable, and each model's
// documented reclamation mechanism must actually engage.
#include <gtest/gtest.h>

#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/glibc_model.hpp"
#include "alloc/hoard_model.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tmx::alloc {
namespace {

class Footprint : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { a_ = create_allocator(GetParam()); }
  std::unique_ptr<Allocator> a_;
};

TEST_P(Footprint, SteadyStateChurnDoesNotGrow) {
  // Warm up, snapshot the OS footprint, then churn 20k ops: the footprint
  // must not keep growing (free lists/bins must be reused).
  Rng rng(31);
  std::vector<void*> live;
  for (int i = 0; i < 2000; ++i) {
    live.push_back(a_->allocate(1 + rng.below(512)));
  }
  for (void* p : live) a_->deallocate(p);
  live.clear();
  const std::size_t warm = a_->os_reserved();
  for (int i = 0; i < 20000; ++i) {
    if (live.size() < 1000 && (live.empty() || rng.chance(0.5))) {
      live.push_back(a_->allocate(1 + rng.below(512)));
    } else {
      const std::size_t idx = rng.below(live.size());
      a_->deallocate(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) a_->deallocate(p);
  // Every model must stay within 2x of the warm size.
  EXPECT_LE(a_->os_reserved(), 2 * warm) << GetParam();
}

TEST_P(Footprint, SameSizeChurnReusesABoundedSet) {
  std::vector<void*> batch;
  std::set<void*> seen;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      void* p = a_->allocate(96);
      batch.push_back(p);
      seen.insert(p);
    }
    for (void* p : batch) a_->deallocate(p);
    batch.clear();
  }
  // 50 rounds x 64 blocks cycling: the distinct-address set stays near one
  // round's worth (caches may hold slightly more across the models).
  EXPECT_LE(seen.size(), 64u * 4) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Models, Footprint,
                         ::testing::Values("glibc", "hoard", "tbb",
                                           "tcmalloc", "jemalloc"),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(GlibcFragmentation, CoalescedSpaceServesLargerRequests) {
  GlibcModelAllocator a;
  // Allocate 32 x 256B contiguously, free all, then ask for one 6KB block:
  // boundary-tag coalescing must satisfy it from the same arena space.
  std::vector<void*> ps;
  for (int i = 0; i < 32; ++i) ps.push_back(a.allocate(256));
  const std::size_t before = a.os_reserved();
  const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(ps.front());
  for (void* p : ps) a.deallocate(p);
  auto* big = static_cast<char*>(a.allocate(6 * 1024));
  EXPECT_EQ(a.os_reserved(), before);
  // The big block lands inside the freed range (or at the old top).
  const std::uintptr_t bp = reinterpret_cast<std::uintptr_t>(big);
  EXPECT_LT(bp - lo, 64u * 1024u);
  a.deallocate(big);
}

TEST(GlibcFragmentation, FastbinsDoNotCoalesce) {
  GlibcModelAllocator a;
  // Two adjacent 64-byte (fastbin-class) chunks freed: a subsequent
  // 160-byte request cannot use their combined space (no coalescing for
  // fast chunks) and must come from elsewhere.
  void* p1 = a.allocate(64);
  void* p2 = a.allocate(64);
  a.deallocate(p1);
  a.deallocate(p2);
  void* big = a.allocate(160);
  EXPECT_NE(big, p1);
  // And the fastbin blocks are still individually reusable.
  void* q1 = a.allocate(64);
  void* q2 = a.allocate(64);
  EXPECT_TRUE((q1 == p1 && q2 == p2) || (q1 == p2 && q2 == p1));
}

TEST(HoardFragmentation, EmptySuperblocksReturnToGlobalHeap) {
  HoardModelAllocator a;
  // Fill two superblocks of a large (uncached) class, then free
  // everything: the emptiness policy must recycle superblocks so that a
  // fresh burst does not map new ones.
  std::vector<void*> ps;
  const std::size_t block = 1024;  // 64KB superblock holds ~63
  for (int i = 0; i < 120; ++i) ps.push_back(a.allocate(block));
  const std::size_t grown = a.os_reserved();
  for (void* p : ps) a.deallocate(p);
  ps.clear();
  for (int i = 0; i < 120; ++i) ps.push_back(a.allocate(block));
  EXPECT_EQ(a.os_reserved(), grown);
  for (void* p : ps) a.deallocate(p);
}

TEST(TbbFragmentation, EmptyBlocksRecycleAcrossClasses) {
  auto a = create_allocator("tbb");
  // Exhaust a block of one class, free it all (returning the 16KB block
  // to the global heap), then allocate a *different* class: the footprint
  // must reuse the recycled block rather than carving a new chunk.
  std::vector<void*> ps;
  for (int i = 0; i < 400; ++i) ps.push_back(a->allocate(40));
  for (void* p : ps) a->deallocate(p);
  const std::size_t before = a->os_reserved();
  ps.clear();
  for (int i = 0; i < 400; ++i) ps.push_back(a->allocate(80));
  EXPECT_EQ(a->os_reserved(), before);
  for (void* p : ps) a->deallocate(p);
}

}  // namespace
}  // namespace tmx::alloc
