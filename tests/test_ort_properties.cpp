// Property tests of the ORT mapping function across shift amounts and
// table sizes — the lever the whole paper turns on.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"

namespace tmx::stm {

// The lock tables, as the barriers see them.
struct StmTestPeer {
  static std::vector<std::span<const detail::VLock>> tables(const Stm& s) {
    std::vector<std::span<const detail::VLock>> t{{s.ort_.get(), s.ort_size()}};
    for (const auto& shard : s.ort_shards_) {
      t.emplace_back(shard.get(), s.shard_mask_ + 1);
    }
    return t;
  }
};

namespace {

struct OrtCase {
  unsigned shift;
  unsigned ort_log2;
};

class OrtSweep : public ::testing::TestWithParam<OrtCase> {
 protected:
  void SetUp() override {
    allocator = alloc::create_allocator("glibc");
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.shift = GetParam().shift;
    cfg.ort_log2 = GetParam().ort_log2;
    stm = std::make_unique<Stm>(cfg);
  }
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<Stm> stm;
};

TEST_P(OrtSweep, StripeSizeIsTwoToTheShift) {
  const std::uintptr_t stripe = std::uintptr_t{1} << GetParam().shift;
  const std::uintptr_t base = 0x7000000000;
  // All addresses within one stripe map together...
  for (std::uintptr_t off = 0; off < stripe; off += 8) {
    EXPECT_EQ(stm->ort_index(reinterpret_cast<void*>(base + off)),
              stm->ort_index(reinterpret_cast<void*>(base)));
  }
  // ...and the next stripe maps elsewhere.
  EXPECT_NE(stm->ort_index(reinterpret_cast<void*>(base + stripe)),
            stm->ort_index(reinterpret_cast<void*>(base)));
}

TEST_P(OrtSweep, TableSizeMatchesConfig) {
  EXPECT_EQ(stm->ort_size(), std::size_t{1} << GetParam().ort_log2);
}

TEST_P(OrtSweep, AliasingPeriodIsStripeTimesTableSize) {
  const std::uintptr_t period =
      (std::uintptr_t{1} << GetParam().shift) * stm->ort_size();
  const std::uintptr_t base = 0x7000000000;
  EXPECT_EQ(stm->ort_index(reinterpret_cast<void*>(base)),
            stm->ort_index(reinterpret_cast<void*>(base + period)));
  EXPECT_NE(stm->ort_index(reinterpret_cast<void*>(base)),
            stm->ort_index(reinterpret_cast<void*>(base + period / 2)));
}

TEST_P(OrtSweep, ConsecutiveStripesSpreadUniformly) {
  // 4096 consecutive stripes hit 4096 distinct entries (no clustering).
  std::set<std::size_t> seen;
  const std::uintptr_t stripe = std::uintptr_t{1} << GetParam().shift;
  for (std::uintptr_t i = 0; i < 4096; ++i) {
    seen.insert(stm->ort_index(
        reinterpret_cast<void*>(0x7000000000 + i * stripe)));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST_P(OrtSweep, TransactionsWorkAtThisConfiguration) {
  alignas(8) std::uint64_t x = 0;
  stm->atomically([&](Tx& tx) { tx.store(&x, tx.load(&x) + 1); });
  EXPECT_EQ(x, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OrtSweep,
    ::testing::Values(OrtCase{3, 16}, OrtCase{4, 18}, OrtCase{4, 20},
                      OrtCase{5, 20}, OrtCase{5, 16}, OrtCase{6, 20},
                      OrtCase{8, 14}),
    [](const auto& pinfo) {
      return "shift" + std::to_string(pinfo.param.shift) + "_log" +
             std::to_string(pinfo.param.ort_log2);
    });

TEST(OrtAliasing, PaperSection52ArenaMath) {
  // 64MB-apart addresses alias for every table size the paper considers:
  // (64MB >> 5) is a multiple of 2^20.
  auto allocator = alloc::create_allocator("glibc");
  Config cfg;
  cfg.allocator = allocator.get();
  Stm stm(cfg);
  const std::uintptr_t a1 = 0x18000000;
  for (int k = 1; k <= 8; ++k) {
    const std::uintptr_t ak = a1 + k * (64ull << 20);
    EXPECT_EQ(stm.ort_index(reinterpret_cast<void*>(a1)),
              stm.ort_index(reinterpret_cast<void*>(ak)))
        << "arena " << k;
  }
}

TEST(OrtAliasing, SuperblockAlignmentsDoNotAlias) {
  // Hoard's 64KB and TBB's 16KB superblocks do *not* alias in a 2^20-entry
  // table (Section 5.2's contrast with Glibc's 64MB arenas).
  auto allocator = alloc::create_allocator("glibc");
  Config cfg;
  cfg.allocator = allocator.get();
  Stm stm(cfg);
  const std::uintptr_t base = 0x18000000;
  EXPECT_NE(stm.ort_index(reinterpret_cast<void*>(base)),
            stm.ort_index(reinterpret_cast<void*>(base + (64 << 10))));
  EXPECT_NE(stm.ort_index(reinterpret_cast<void*>(base)),
            stm.ort_index(reinterpret_cast<void*>(base + (16 << 10))));
}

TEST(OrtAliasing, FalseAbortDisappearsWithLargerStripeExactlyAtBoundary) {
  // Two nodes `spacing` bytes apart share a stripe iff spacing < stripe
  // and they sit in the same aligned window; verify the boundary cases
  // the paper's Figure 5 and Section 5.3 discuss.
  auto allocator = alloc::create_allocator("glibc");
  for (unsigned shift : {4u, 5u, 6u}) {
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.shift = shift;
    Stm stm(cfg);
    const std::uintptr_t stripe = 1u << shift;
    const std::uintptr_t base = 0x7000000000;  // stripe-aligned
    // Nodes at base and base+16 share iff 16 < stripe.
    const bool share =
        stm.ort_index(reinterpret_cast<void*>(base)) ==
        stm.ort_index(reinterpret_cast<void*>(base + 16));
    EXPECT_EQ(share, stripe > 16) << "shift " << shift;
  }
}

// ---- Lock-table residency ----

// Pages of `t` in the host's resident set, by mincore(2).
std::size_t resident_pages(std::span<const detail::VLock> t) {
  constexpr std::size_t kPage = 4096;
  const std::size_t pages = (t.size_bytes() + kPage - 1) / kPage;
  std::vector<unsigned char> in(pages);
  void* base = const_cast<detail::VLock*>(t.data());
  EXPECT_EQ(mincore(base, t.size_bytes(), in.data()), 0);
  std::size_t n = 0;
  for (unsigned char c : in) n += c & 1;
  return n;
}

Config lock_config(alloc::Allocator* a, unsigned shards) {
  Config cfg;
  cfg.allocator = a;
  cfg.ort_shards = shards;
  return cfg;
}

TEST(OrtResidency, ABuiltStmLeavesItsLockTablesUntouched) {
  // Carved pages are already zero, and zero is "unlocked, version 0": no
  // construction pass writes (and so faults in) the 8 MiB global table or
  // the per-node shards.
  auto allocator = alloc::create_allocator("glibc");
  for (unsigned shards : {0u, 4u}) {
    Stm stm(lock_config(allocator.get(), shards));
    const auto tables = StmTestPeer::tables(stm);
    ASSERT_EQ(tables.size(), shards == 0 ? 1u : 1u + shards);
    for (std::span<const detail::VLock> t : tables) {
      EXPECT_LE(resident_pages(t), 4u)
          << "shards " << shards << ", table of " << t.size() << " locks";
    }
  }
}

TEST(OrtResidency, SampledStripesReadUnlockedVersionZero) {
  auto allocator = alloc::create_allocator("glibc");
  for (unsigned shards : {0u, 4u}) {
    Stm stm(lock_config(allocator.get(), shards));
    for (std::span<const detail::VLock> t : StmTestPeer::tables(stm)) {
      for (std::size_t i = 0; i < t.size(); i += 4099) {
        EXPECT_EQ(t[i], 0u) << "stripe " << i;  // (version 0) << 1, unlocked
      }
      EXPECT_EQ(t.back(), 0u);
    }
  }
}

}  // namespace
}  // namespace tmx::stm
