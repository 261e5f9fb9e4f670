// Behavior every allocator model must satisfy, run against all of them via
// parameterized tests: correctness of alloc/free cycles, alignment,
// cross-thread frees, block independence, and stress under both engines.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"


namespace tmx::alloc {
namespace {

class AllocatorContract : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { a_ = create_allocator(GetParam()); }
  std::unique_ptr<Allocator> a_;
};

TEST_P(AllocatorContract, BasicAllocateAndFree) {
  void* p = a_->allocate(24);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 24);
  a_->deallocate(p);
}

TEST_P(AllocatorContract, ZeroSizeReturnsUsableBlock) {
  void* p = a_->allocate(0);
  ASSERT_NE(p, nullptr);
  a_->deallocate(p);
}

TEST_P(AllocatorContract, NullFreeIsIgnored) { a_->deallocate(nullptr); }

TEST_P(AllocatorContract, UsableSizeCoversRequest) {
  for (std::size_t size : {1u, 8u, 16u, 17u, 48u, 100u, 256u, 1000u, 4096u}) {
    void* p = a_->allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(a_->usable_size(p), size) << "size " << size;
    a_->deallocate(p);
  }
}

TEST_P(AllocatorContract, EightByteAlignment) {
  for (std::size_t size : {1u, 7u, 8u, 12u, 16u, 24u, 48u, 100u, 2048u}) {
    void* p = a_->allocate(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u) << "size " << size;
    a_->deallocate(p);
  }
}

TEST_P(AllocatorContract, BlocksDoNotOverlap) {
  constexpr int kN = 200;
  std::vector<std::pair<char*, std::size_t>> blocks;
  Rng rng(5);
  for (int i = 0; i < kN; ++i) {
    const std::size_t size = 1 + rng.below(300);
    auto* p = static_cast<char*>(a_->allocate(size));
    ASSERT_NE(p, nullptr);
    std::memset(p, i & 0xff, size);
    blocks.emplace_back(p, size);
  }
  // Verify contents survive later allocations (no overlap / reuse bugs).
  for (int i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < blocks[i].second; ++j) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i].first[j]), i & 0xff);
    }
  }
  for (auto& [p, s] : blocks) a_->deallocate(p);
}

TEST_P(AllocatorContract, FreedMemoryIsReused) {
  // Steady-state churn must not grow the footprint without bound.
  std::set<void*> seen;
  for (int i = 0; i < 10000; ++i) {
    void* p = a_->allocate(64);
    seen.insert(p);
    a_->deallocate(p);
  }
  EXPECT_LE(seen.size(), 16u);
}

TEST_P(AllocatorContract, LargeAllocations) {
  for (std::size_t size : {64u * 1024u, 300u * 1024u, 2u * 1024u * 1024u}) {
    auto* p = static_cast<char*>(a_->allocate(size));
    ASSERT_NE(p, nullptr);
    p[0] = 1;
    p[size - 1] = 2;
    EXPECT_GE(a_->usable_size(p), size);
    a_->deallocate(p);
  }
}

TEST_P(AllocatorContract, MixedSizeStress) {
  Rng rng(99);
  std::vector<std::pair<void*, std::uint64_t>> live;
  for (int i = 0; i < 5000; ++i) {
    if (live.empty() || rng.chance(0.55)) {
      // The tag word below needs the first 8 bytes to exist.
      const std::size_t size = sizeof(std::uint64_t) + rng.below(2000);
      auto* p = static_cast<std::uint64_t*>(a_->allocate(size));
      ASSERT_NE(p, nullptr);
      const std::uint64_t tag = rng.next();
      *p = tag;  // first word must survive
      live.emplace_back(p, tag);
    } else {
      const std::size_t idx = rng.below(live.size());
      auto [p, tag] = live[idx];
      ASSERT_EQ(*static_cast<std::uint64_t*>(p), tag);
      a_->deallocate(p);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (auto& [p, tag] : live) {
    ASSERT_EQ(*static_cast<std::uint64_t*>(p), tag);
    a_->deallocate(p);
  }
}

TEST_P(AllocatorContract, CrossThreadFreeUnderFibers) {
  // Producer fibers allocate; consumer fibers free — every allocator must
  // accept frees from a thread other than the allocating one.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::vector<void*>> handoff(kThreads);
  sim::RunConfig rc;
  rc.threads = kThreads;
  rc.cache_model = false;
  sim::run_parallel(rc, [&](int tid) {
    Rng rng(thread_seed(1, tid));
    for (int i = 0; i < kPerThread; ++i) {
      void* p = a_->allocate(16 + rng.below(256));
      std::memset(p, tid, 16);
      handoff[tid].push_back(p);
      if (i % 8 == 0) sim::yield();
    }
  });
  sim::run_parallel(rc, [&](int tid) {
    // Free the blocks of the *next* thread.
    for (void* p : handoff[(tid + 1) % kThreads]) {
      a_->deallocate(p);
      sim::yield();
    }
  });
}

TEST_P(AllocatorContract, ConcurrentChurnUnderRealThreads) {
  constexpr int kThreads = 4;
  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Threads;
  rc.threads = kThreads;
  sim::run_parallel(rc, [&](int tid) {
    Rng rng(thread_seed(2, tid));
    std::vector<void*> live;
    for (int i = 0; i < 3000; ++i) {
      if (live.empty() || rng.chance(0.6)) {
        void* p = a_->allocate(1 + rng.below(500));
        *static_cast<char*>(p) = static_cast<char>(tid);
        live.push_back(p);
      } else {
        const std::size_t idx = rng.below(live.size());
        a_->deallocate(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
    }
    for (void* p : live) a_->deallocate(p);
  });
}

TEST_P(AllocatorContract, TraitsAreFilledIn) {
  const AllocatorTraits& t = a_->traits();
  EXPECT_EQ(t.name, GetParam());
  EXPECT_FALSE(t.models.empty());
  EXPECT_FALSE(t.synchronization.empty());
}

INSTANTIATE_TEST_SUITE_P(AllAllocators, AllocatorContract,
                         ::testing::Values("glibc", "hoard", "tbb",
                                           "tcmalloc", "jemalloc", "phase"),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(Registry, KnowsAllNamesAndRejectsNone) {
  const auto names = allocator_names();
  EXPECT_EQ(names.size(), 6u);
  for (const auto& n : names) {
    EXPECT_TRUE(allocator_exists(n));
    EXPECT_NE(create_allocator(n), nullptr);
  }
  EXPECT_FALSE(allocator_exists("dlmalloc"));
}

// --list-allocators in every tool (stamp_runner, trace_replay,
// allocator_duel, server_mix) is print_registry(); this pins the listing to
// the registry, so a model registered without a traits row (or vice versa)
// fails here rather than silently shipping an incomplete table.
// smoke_list_allocators additionally diffs the tools' outputs pairwise.
TEST(Registry, PrintedListingStaysInSyncWithRegistry) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  print_registry(tmp);
  std::fseek(tmp, 0, SEEK_SET);
  std::string listing;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, tmp)) > 0) {
    listing.append(buf, got);
  }
  std::fclose(tmp);

  const auto regs = registered_allocators();
  EXPECT_EQ(regs.size(), allocator_names().size());
  for (const auto& r : regs) {
    EXPECT_NE(listing.find(r.name), std::string::npos)
        << "registered model '" << r.name << "' missing from the listing";
    EXPECT_FALSE(r.traits.models.empty()) << r.name;
  }
}

TEST(Registry, InstancesAreIndependent) {
  auto a = create_allocator("tcmalloc");
  auto b = create_allocator("tcmalloc");
  void* pa = a->allocate(32);
  void* pb = b->allocate(32);
  EXPECT_NE(pa, pb);
  a->deallocate(pa);
  b->deallocate(pb);
}

}  // namespace
}  // namespace tmx::alloc
