// PageProvider release/remap — the API surface tmx::phase's whole-phase
// reclaim and compaction stand on. Accounting invariants (total / per-node
// decrement, peak persistence), home-node preservation across remap, and
// graceful degradation when the fault plane refuses the new mapping.
#include <gtest/gtest.h>

#include <cstring>

#include "alloc/page_provider.hpp"
#include "fault/fault.hpp"
#include "harness/run_context.hpp"

namespace tmx::alloc {
namespace {

constexpr std::size_t kChunk = 64 * 1024;

TEST(PageProviderRelease, DecrementsTotalsAndKeepsPeak) {
  PageProvider pp;
  void* a = pp.reserve_on_node(kChunk, kChunk, 1);
  void* b = pp.reserve_on_node(kChunk, kChunk, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pp.total_reserved(), 2 * kChunk);
  EXPECT_EQ(pp.node_reserved(1), kChunk);
  EXPECT_EQ(pp.node_reserved(2), kChunk);
  EXPECT_EQ(pp.peak_reserved(), 2 * kChunk);

  EXPECT_TRUE(pp.release(a));
  EXPECT_EQ(pp.total_reserved(), kChunk);
  EXPECT_EQ(pp.node_reserved(1), 0u);
  EXPECT_EQ(pp.node_reserved(2), kChunk);
  // The high-water mark survives the release: fragmentation reporting
  // (peak reserved vs live) depends on it.
  EXPECT_EQ(pp.peak_reserved(), 2 * kChunk);

  // Releasing something that is not a live reservation base is refused
  // without touching the accounting: nullptr, an interior pointer, and a
  // double release all report false.
  EXPECT_FALSE(pp.release(nullptr));
  EXPECT_FALSE(pp.release(static_cast<char*>(b) + 64));
  EXPECT_FALSE(pp.release(a));
  EXPECT_EQ(pp.total_reserved(), kChunk);
  EXPECT_TRUE(pp.release(b));
  EXPECT_EQ(pp.total_reserved(), 0u);
}

TEST(PageProviderRemap, PreservesContentsLengthAndHomeNode) {
  PageProvider pp;
  void* a = pp.reserve_on_node(4 * PageProvider::kPageSize,
                               PageProvider::kPageSize, 3);
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(pp.reservation_node(a), 3);
  auto* bytes = static_cast<unsigned char*>(a);
  for (std::size_t i = 0; i < 4 * PageProvider::kPageSize; ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131);
  }

  void* moved = pp.remap(a);
  ASSERT_NE(moved, nullptr);
  EXPECT_NE(moved, a);
  // Same home node (compaction must not turn local memory remote), same
  // length (total is unchanged once the old mapping is gone), same bytes.
  EXPECT_EQ(pp.reservation_node(moved), 3);
  EXPECT_EQ(pp.reservation_node(a), -1);
  EXPECT_EQ(pp.total_reserved(), 4 * PageProvider::kPageSize);
  EXPECT_EQ(pp.node_reserved(3), 4 * PageProvider::kPageSize);
  auto* nb = static_cast<unsigned char*>(moved);
  for (std::size_t i = 0; i < 4 * PageProvider::kPageSize; ++i) {
    ASSERT_EQ(nb[i], static_cast<unsigned char>(i * 131)) << "byte " << i;
  }
  // Remap holds both mappings while copying, so the peak records the sum.
  EXPECT_EQ(pp.peak_reserved(), 8 * PageProvider::kPageSize);
  EXPECT_TRUE(pp.release(moved));
}

TEST(PageProviderRemap, UnknownBaseIsRejected) {
  PageProvider pp;
  int local = 0;
  EXPECT_EQ(pp.remap(&local), nullptr);
  EXPECT_EQ(pp.remap(nullptr), nullptr);
}

TEST(PageProviderRemap, FaultRefusalLeavesOriginalIntact) {
  PageProvider pp;
  void* a = pp.reserve_on_node(PageProvider::kPageSize,
                               PageProvider::kPageSize, 1);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0x5a, PageProvider::kPageSize);

  fault::FaultPlan plan;
  plan.reserve_rate = 1.0;  // every new mapping refused
  {
    const harness::RunContext faulty({.fault = plan});
    EXPECT_EQ(pp.remap(a), nullptr);
  }

  // The refused move must not have disturbed the original reservation:
  // still registered, still on its node, contents untouched, accounting
  // unchanged. This is the contract compaction's graceful-degradation
  // path (straggler stays put) relies on.
  EXPECT_EQ(pp.reservation_node(a), 1);
  EXPECT_EQ(pp.total_reserved(), PageProvider::kPageSize);
  EXPECT_EQ(pp.node_reserved(1), PageProvider::kPageSize);
  auto* bytes = static_cast<unsigned char*>(a);
  for (std::size_t i = 0; i < PageProvider::kPageSize; ++i) {
    ASSERT_EQ(bytes[i], 0x5a);
  }
  EXPECT_TRUE(pp.release(a));
}

}  // namespace
}  // namespace tmx::alloc
