#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/cache_model.hpp"
#include "util/rng.hpp"

namespace tmx::sim {
namespace {

class CacheModelTest : public ::testing::Test {
 protected:
  CacheGeometry geo{};  // paper Table 2 defaults, 8 cores
  LatencyModel lat{};
  std::unique_ptr<CacheModel> make() {
    return std::make_unique<CacheModel>(geo, lat);
  }
  // A fake address space for the tests.
  static std::uintptr_t addr(std::uintptr_t line, unsigned off = 0) {
    return 0x10000000 + line * 64 + off;
  }
};

TEST_F(CacheModelTest, ColdMissThenHit) {
  auto c = make();
  EXPECT_EQ(c->access(0, addr(0), 8, false), lat.memory);
  EXPECT_EQ(c->access(0, addr(0), 8, false), lat.l1_hit);
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.accesses, 2u);
  EXPECT_EQ(s.l1_misses, 1u);
  EXPECT_EQ(s.l1_hits, 1u);
  EXPECT_EQ(s.l2_misses, 1u);
}

TEST_F(CacheModelTest, SameLineDifferentOffsetHits) {
  auto c = make();
  c->access(0, addr(5, 0), 8, false);
  EXPECT_EQ(c->access(0, addr(5, 32), 8, false), lat.l1_hit);
}

TEST_F(CacheModelTest, SharedL2ServesSecondCore) {
  auto c = make();
  c->access(0, addr(1), 8, false);  // memory -> L2 + core0 L1
  EXPECT_EQ(c->access(1, addr(1), 8, false), lat.l2_hit);
}

TEST_F(CacheModelTest, WriteInvalidatesRemoteCopies) {
  auto c = make();
  c->access(0, addr(2), 8, false);
  c->access(1, addr(2), 8, false);
  // Core 0 writes: core 1's copy must be invalidated.
  c->access(0, addr(2), 8, true);
  EXPECT_EQ(c->total_stats().invalidations, 1u);
  // Core 1 reads again: the line is gone from its L1 (L2 still has it).
  EXPECT_EQ(c->access(1, addr(2), 8, false), lat.l2_hit);
}

TEST_F(CacheModelTest, FalseSharingDetectedByOffset) {
  auto c = make();
  // Core 1 touches offset 16 of a line; core 0 writes offset 0 of the same
  // line: a false-sharing invalidation.
  c->access(1, addr(3, 16), 8, false);
  c->access(0, addr(3, 0), 8, true);
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.false_sharing, 1u);
}

TEST_F(CacheModelTest, TrueSharingIsNotFalseSharing) {
  auto c = make();
  c->access(1, addr(4, 8), 8, false);
  c->access(0, addr(4, 8), 8, true);  // same offset: genuine communication
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.false_sharing, 0u);
}

TEST_F(CacheModelTest, CapacityEvictionInL1) {
  auto c = make();
  // 32KB / 64B / 8-way = 64 sets. Touch 9 lines that map to the same set
  // (stride = 64 sets * 64 bytes): the first must be evicted.
  const std::uintptr_t stride = 64 * 64;
  for (int i = 0; i < 9; ++i) c->access(0, addr(0) + i * stride, 8, false);
  c->access(0, addr(0), 8, false);  // evicted: L1 miss (L2 hit)
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.l1_misses, 10u);
  EXPECT_EQ(s.l2_hits, 1u);
}

TEST_F(CacheModelTest, StraddlingAccessTouchesTwoLines) {
  auto c = make();
  c->access(0, addr(10, 60), 8, false);  // crosses into line 11
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.accesses, 2u);
  EXPECT_EQ(c->access(0, addr(11), 8, false), lat.l1_hit);
}

TEST_F(CacheModelTest, PerCoreStatsAreSeparate) {
  auto c = make();
  c->access(0, addr(20), 8, false);
  c->access(0, addr(21), 8, false);
  c->access(3, addr(22), 8, false);
  EXPECT_EQ(c->core_stats(0).accesses, 2u);
  EXPECT_EQ(c->core_stats(3).accesses, 1u);
  EXPECT_EQ(c->core_stats(1).accesses, 0u);
}

TEST_F(CacheModelTest, MissRatioComputation) {
  CacheStats s;
  s.accesses = 200;
  s.l1_misses = 10;
  EXPECT_DOUBLE_EQ(s.l1_miss_ratio(), 0.05);
  EXPECT_DOUBLE_EQ(CacheStats{}.l1_miss_ratio(), 0.0);
}

TEST_F(CacheModelTest, SmallerL1GeometryMissesMore) {
  CacheGeometry small = geo;
  small.l1_size = 4 * 1024;
  CacheModel big(geo, lat);
  CacheModel tiny(small, lat);
  // Working set of 16KB: fits the 32KB L1, not the 4KB one.
  for (int pass = 0; pass < 4; ++pass) {
    for (int i = 0; i < 256; ++i) {
      big.access(0, addr(i), 8, false);
      tiny.access(0, addr(i), 8, false);
    }
  }
  EXPECT_LT(big.total_stats().l1_misses, tiny.total_stats().l1_misses);
}

// A seeded synthetic stream of fake addresses, fed straight into the model
// with no host memory involved: unlike the engine-driven goldens, code
// layout and address randomisation cannot move these numbers. The stream
// mixes hot truly shared lines, lines that conflict in one L1 set, an
// L2-missing tail and line-straddling accesses; about 20% are writes. No
// NUMA range is registered, so every line is homed on node 0.
struct StreamResult {
  CacheStats stats;
  std::uint64_t latency = 0;
};

StreamResult run_synthetic_stream(const CacheGeometry& geo, int accesses) {
  CacheModel c(geo, LatencyModel{});
  Rng rng(0x5eed'cac4e);
  const std::uintptr_t base = 0x40000000;
  // Lines this far apart share an L1 set; 12 of them overflow its 8 ways.
  const std::uintptr_t l1_stride = geo.l1_size / geo.l1_ways;
  StreamResult r;
  unsigned core = 0;
  for (int i = 0; i < accesses; ++i) {
    // Each core issues a burst of four accesses, as a barrier does.
    if (i % 4 == 0) core = static_cast<unsigned>(rng.below(geo.cores));
    const bool write = rng.below(5) == 0;
    const unsigned off = static_cast<unsigned>(rng.below(8)) * 8;
    const std::uint64_t kind = rng.below(100);
    std::uintptr_t a;
    unsigned bytes = 8;
    if (kind < 40) {  // hot, truly shared
      a = base + rng.below(24) * 64 + off;
    } else if (kind < 65) {  // L1-conflicting
      a = base + 0x100000 + rng.below(12) * l1_stride + off;
    } else if (kind < 90) {  // L2-missing tail over 256 MiB
      a = base + 0x10000000 + rng.below(std::uint64_t{1} << 22) * 64 + off;
    } else {  // straddles two lines
      a = base + 0x200000 + rng.below(64) * 64 + 60;
      bytes = 4 + static_cast<unsigned>(rng.below(13));
    }
    r.latency += c.access(core, a, bytes, write);
  }
  r.stats = c.total_stats();
  return r;
}

void expect_stream(const StreamResult& r, const CacheStats& want,
                   std::uint64_t want_latency) {
  EXPECT_EQ(r.stats.accesses, want.accesses);
  EXPECT_EQ(r.stats.l1_hits, want.l1_hits);
  EXPECT_EQ(r.stats.l1_misses, want.l1_misses);
  EXPECT_EQ(r.stats.l2_hits, want.l2_hits);
  EXPECT_EQ(r.stats.l2_misses, want.l2_misses);
  EXPECT_EQ(r.stats.invalidations, want.invalidations);
  EXPECT_EQ(r.stats.false_sharing, want.false_sharing);
  EXPECT_EQ(r.stats.numa_local, want.numa_local);
  EXPECT_EQ(r.stats.numa_remote, want.numa_remote);
  EXPECT_EQ(r.latency, want_latency);
}

TEST(CacheModelGolden, SyntheticStream8Cores1Node) {
  const StreamResult r = run_synthetic_stream(CacheGeometry{}, 200000);
  CacheStats want;
  want.accesses = 218441;
  want.l1_hits = 69569;
  want.l1_misses = 148872;
  want.l2_hits = 98804;
  want.l2_misses = 50068;
  want.invalidations = 94585;
  want.false_sharing = 74311;
  want.numa_local = 50068;
  want.numa_remote = 0;
  expect_stream(r, want, 14068992);
}

TEST(CacheModelGolden, SyntheticStream256Cores4Nodes) {
  CacheGeometry geo;
  geo.cores = 256;
  geo.nodes = 4;
  const StreamResult r = run_synthetic_stream(geo, 200000);
  CacheStats want;
  want.accesses = 218441;
  want.l1_hits = 6719;
  want.l1_misses = 211722;
  want.l2_hits = 161105;
  want.l2_misses = 50617;
  want.invalidations = 161032;
  want.false_sharing = 126398;
  want.numa_local = 12544;
  want.numa_remote = 38073;
  expect_stream(r, want, 24637367);
}

// All 256 cores of a 4-node machine read one line, then core 0 writes it:
// the directory must name all 255 other copies, and the write pays a
// same-node or a cross-node invalidation for each.
TEST(CacheModelDirectory, WriteInvalidatesAll255Sharers) {
  CacheGeometry geo;
  geo.cores = 256;
  geo.nodes = 4;  // 64 cores per node; core 0 is on node 0
  const LatencyModel lat;
  CacheModel c(geo, lat);
  const std::uintptr_t line = 0x7000000;
  for (unsigned core = 0; core < geo.cores; ++core) {
    c.access(core, line, 8, false);
  }
  const CacheStats before = c.total_stats();
  const std::uint64_t latency = c.access(0, line, 8, true);
  const CacheStats after = c.total_stats();
  EXPECT_EQ(after.invalidations - before.invalidations, 255u);
  EXPECT_EQ(after.false_sharing - before.false_sharing, 0u);
  EXPECT_EQ(latency,
            lat.l1_hit + 63 * lat.coherence + 192 * lat.remote_coherence);
  // Every other copy is gone: each core now misses L1 (and hits L2).
  for (unsigned core = 1; core < geo.cores; core += 51) {
    EXPECT_EQ(c.access(core, line, 8, false), lat.l2_hit) << core;
  }
}

// The reference for the churn test: the same L1s with no sharer directory.
// A write scans every other core's L1 set for the line, as the model did
// before it kept a directory.
class NaiveL1 {
 public:
  explicit NaiveL1(const CacheGeometry& geo)
      : geo_(geo),
        sets_(geo.l1_size / (geo.line_size * geo.l1_ways)),
        tags_(geo.cores * sets_ * geo.l1_ways, kEmpty),
        lru_(tags_.size(), 0),
        off_(tags_.size(), 0),
        stats_(geo.cores) {}

  void access(unsigned core, std::uintptr_t addr, unsigned bytes, bool write) {
    const std::uintptr_t first = addr / geo_.line_size * geo_.line_size;
    const std::uintptr_t last =
        (addr + bytes - 1) / geo_.line_size * geo_.line_size;
    for (std::uintptr_t l = first; l <= last; l += geo_.line_size) {
      line(core, l, l == first ? static_cast<unsigned>(addr - first) : 0,
           write);
    }
  }
  const CacheStats& core_stats(unsigned core) const { return stats_[core]; }

 private:
  static constexpr std::uintptr_t kEmpty = ~std::uintptr_t{0};

  std::size_t base(unsigned core, std::uintptr_t l) const {
    return (core * sets_ + (l / geo_.line_size) % sets_) * geo_.l1_ways;
  }
  int find(std::size_t b, std::uintptr_t l) const {
    for (unsigned w = 0; w < geo_.l1_ways; ++w) {
      if (tags_[b + w] == l) return static_cast<int>(w);
    }
    return -1;
  }

  void line(unsigned core, std::uintptr_t l, unsigned offset, bool write) {
    ++tick_;
    CacheStats& st = stats_[core];
    ++st.accesses;
    const std::size_t b = base(core, l);
    int way = find(b, l);
    if (way >= 0) {
      ++st.l1_hits;
    } else {
      ++st.l1_misses;
      way = 0;
      for (unsigned w = 0; w < geo_.l1_ways; ++w) {
        if (tags_[b + w] == kEmpty) {
          way = static_cast<int>(w);
          break;
        }
        if (lru_[b + w] < lru_[b + way]) way = static_cast<int>(w);
      }
      tags_[b + way] = l;
    }
    lru_[b + way] = tick_;
    off_[b + way] = offset;
    if (!write) return;
    for (unsigned c = 0; c < geo_.cores; ++c) {
      if (c == core) continue;
      const std::size_t rb = base(c, l);
      const int rw = find(rb, l);
      if (rw < 0) continue;
      tags_[rb + rw] = kEmpty;
      ++st.invalidations;
      if (off_[rb + rw] != offset) ++st.false_sharing;
    }
  }

  CacheGeometry geo_;
  std::size_t sets_;
  std::vector<std::uintptr_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::vector<unsigned> off_;
  std::vector<CacheStats> stats_;
  std::uint64_t tick_ = 0;
};

// Small 2-way L1s make most fills evictions. Phases alternate between
// private lines (every L1 full of distinct lines: the directory at its
// fullest) and a small shared pool with frequent writes (most entries
// evicted or invalidated away), so the directory drains and refills many
// times and its probe runs wrap around the table's end. The directory
// starts small, so each geometry also regrows it several times.
void expect_churn_matches_reference(unsigned cores, unsigned l1_sets,
                                    int phases) {
  SCOPED_TRACE(testing::Message() << cores << " cores, " << l1_sets << " sets");
  CacheGeometry geo;
  geo.cores = cores;
  geo.l1_ways = 2;
  geo.l1_size = l1_sets * geo.l1_ways * 64;
  geo.l2_size = 64 * 64 * 4;
  geo.l2_ways = 4;
  CacheModel model(geo, LatencyModel{});
  NaiveL1 ref(geo);
  Rng rng(cores);
  const unsigned private_lines = 2 * l1_sets * geo.l1_ways;
  const std::uint64_t per_phase =
      std::max<std::uint64_t>(4000, std::uint64_t{cores} * private_lines);
  for (int phase = 0; phase < phases; ++phase) {
    const bool shared = phase % 2 == 1;
    for (std::uint64_t i = 0; i < per_phase; ++i) {
      const unsigned core = static_cast<unsigned>(rng.below(cores));
      const std::uintptr_t line =
          shared ? rng.below(12)
                 : core * std::uint64_t{private_lines} +
                       rng.below(private_lines);
      const std::uintptr_t a = 0x20000000 + line * 64 + rng.below(4) * 16 +
                               (rng.below(16) == 0 ? 56 : 0);
      const bool write = rng.below(shared ? 3 : 10) == 0;
      model.access(core, a, 8, write);
      ref.access(core, a, 8, write);
    }
  }
  std::uint64_t invalidations = 0;
  for (unsigned c = 0; c < cores; ++c) {
    const CacheStats& m = model.core_stats(c);
    const CacheStats& r = ref.core_stats(c);
    EXPECT_EQ(m.accesses, r.accesses) << c;
    EXPECT_EQ(m.l1_hits, r.l1_hits) << c;
    EXPECT_EQ(m.invalidations, r.invalidations) << c;
    EXPECT_EQ(m.false_sharing, r.false_sharing) << c;
    invalidations += m.invalidations;
  }
  EXPECT_GT(invalidations, 10000u);
}

TEST(CacheModelDirectory, EvictionChurnMatchesNaiveScan) {
  expect_churn_matches_reference(8, 4, 60);
  expect_churn_matches_reference(100, 4, 60);
  expect_churn_matches_reference(256, 4, 60);
  expect_churn_matches_reference(256, 32, 6);  // 16384 L1 lines
}

}  // namespace
}  // namespace tmx::sim
