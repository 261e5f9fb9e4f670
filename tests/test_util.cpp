#include <gtest/gtest.h>

#include <set>

#include "util/macros.hpp"
#include "util/padded.hpp"
#include "util/rng.hpp"

namespace tmx {
namespace {

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(round_up(0, 16), 0u);
  EXPECT_EQ(round_up(1, 16), 16u);
  EXPECT_EQ(round_up(16, 16), 16u);
  EXPECT_EQ(round_up(17, 16), 32u);
  EXPECT_EQ(round_down(17, 16), 16u);
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(63), 5u);
  EXPECT_EQ(log2_ceil(64), 6u);
  EXPECT_EQ(log2_ceil(65), 7u);
}

TEST(Rng, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const std::uint64_t v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ThreadSeedsDiffer) {
  const std::uint64_t s = 99;
  EXPECT_NE(thread_seed(s, 0), thread_seed(s, 1));
  EXPECT_NE(thread_seed(s, 1), thread_seed(s, 2));
  EXPECT_EQ(thread_seed(s, 3), thread_seed(s, 3));
}

TEST(Padded, ElementsOnDistinctLines) {
  Padded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, kCacheLineSize);
  }
}

}  // namespace
}  // namespace tmx
