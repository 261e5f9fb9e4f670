// Set-associative cache simulator standing in for the paper's PAPI hardware
// counters (Table 2 machine: per-core 32KB/8-way L1D, shared 6MB/24-way L2,
// 64-byte lines).
//
// The model is fed the address stream of STM barriers and allocator metadata
// accesses and reports hit/miss counts, coherence invalidations and
// false-sharing events. It is intentionally simple (no MESI state machine,
// no writeback cost) — the paper's conclusions rest on miss *ratios* and on
// whether distinct threads touch the same line, both of which this captures.
//
// NUMA extension (ROADMAP item 5): when the geometry declares more than one
// node, each node gets its own L2 bank (cores consult their node's bank
// only) and an L2 miss is charged `memory` or `remote_memory` latency
// depending on whether sim::numa_home_node places the line on the
// accessing core's node; likewise cross-node invalidations cost
// `remote_coherence`. With nodes == 1 every access is node-local and the
// model is bit-for-bit the original flat machine.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/macros.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::sim {

struct CacheGeometry {
  std::size_t line_size = 64;
  std::size_t l1_size = 32 * 1024;
  unsigned l1_ways = 8;
  std::size_t l2_size = 6 * 1024 * 1024;  // per-node bank size
  unsigned l2_ways = 24;
  unsigned cores = 8;
  // Two-level NUMA shape: cores are grouped into nodes of cores_per_node
  // consecutive ids (node = core / cores_per_node, clamped), each node
  // owning a private L2 bank. cores_per_node == 0 derives cores / nodes.
  // The engine fills both from RunConfig::topology.
  unsigned nodes = 1;
  unsigned cores_per_node = 0;
};

// Latencies in cycles, loosely modeled on the paper's Xeon E5405; the
// remote tiers approximate one QPI/UPI hop and only apply when the
// geometry has more than one node.
struct LatencyModel {
  std::uint64_t l1_hit = 3;
  std::uint64_t l2_hit = 15;       // L1 miss, L2 hit
  std::uint64_t memory = 200;      // L2 miss, line homed on this node
  std::uint64_t coherence = 25;    // invalidating a same-node remote copy
  std::uint64_t remote_memory = 300;    // L2 miss, line homed off-node
  std::uint64_t remote_coherence = 60;  // invalidating an off-node copy
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t invalidations = 0;
  // Invalidations where the remote copy was last touched at a *different*
  // offset within the line — the signature of false sharing.
  std::uint64_t false_sharing = 0;
  // L2 misses split by whether the line's home node matched the accessing
  // core's node (with one node every miss is local).
  std::uint64_t numa_local = 0;
  std::uint64_t numa_remote = 0;

  double l1_miss_ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(l1_misses) /
                               static_cast<double>(accesses);
  }

  void add(const CacheStats& o) {
    accesses += o.accesses;
    l1_hits += o.l1_hits;
    l1_misses += o.l1_misses;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    invalidations += o.invalidations;
    false_sharing += o.false_sharing;
    numa_local += o.numa_local;
    numa_remote += o.numa_remote;
  }

  bool operator==(const CacheStats&) const = default;
};

// Publishes the cache counters into the unified metrics registry under
// `prefix` ("cache.accesses", "cache.l1_miss_ratio", ...).
void publish_metrics(const CacheStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix = "cache.");

class CacheModel {
 public:
  CacheModel(const CacheGeometry& geo, const LatencyModel& lat);

  // Simulates `core` touching [addr, addr+bytes). Returns the latency in
  // cycles. Deterministic: LRU is driven by a global access counter.
  std::uint64_t access(unsigned core, std::uintptr_t addr, unsigned bytes,
                       bool write);

  const CacheStats& core_stats(unsigned core) const { return stats_[core]; }
  CacheStats total_stats() const;
  const CacheGeometry& geometry() const { return geo_; }

 private:
  // An empty way. Tags are line-aligned addresses, so all-ones can never be
  // a real tag and doubles as the "invalid" marker — no separate valid bit.
  static constexpr std::uintptr_t kNoTag = ~std::uintptr_t{0};

  std::uint64_t access_line(unsigned core, std::uintptr_t line_addr,
                            unsigned offset, bool write);

  std::size_t l1_base(unsigned core, std::size_t set) const {
    return (static_cast<std::size_t>(core) * l1_sets_ + set) * geo_.l1_ways;
  }
  unsigned node_of(unsigned core) const {
    const unsigned n = core / cores_per_node_;
    return n < geo_.nodes ? n : geo_.nodes - 1;
  }
  std::size_t l1_set_of(std::uintptr_t line_addr) const {
    return (line_addr / geo_.line_size) & (l1_sets_ - 1);
  }
  // Way holding `line_addr` within the set starting at `tags`, or -1.
  static int find_way(const std::uintptr_t* tags, unsigned ways,
                      std::uintptr_t line_addr);
  // LRU victim way: first empty way, else the least recently used.
  static int victim_way(const std::uintptr_t* tags, const std::uint64_t* lru,
                        unsigned ways);

  // A line's L1 sharer set as a core bitmask: write-invalidate consults
  // this instead of scanning every core's set, so a write costs
  // O(actual sharers) rather than O(cores) — the difference between 8 and
  // 256 simulated cores. Invariant: bit (core) is set iff the line's tag
  // is present in that core's L1; maintained at fill, eviction and
  // invalidation. Entries are erased when the mask empties, bounding the
  // map by total L1 capacity.
  struct SharerMask {
    std::uint64_t w[4] = {0, 0, 0, 0};
    bool any() const { return (w[0] | w[1] | w[2] | w[3]) != 0; }
  };
  static constexpr unsigned kMaxSharerCores = 256;

  CacheGeometry geo_;
  LatencyModel lat_;
  unsigned l1_sets_;
  unsigned l2_sets_;
  unsigned cores_per_node_ = 1;
  // Structure-of-arrays line storage, indexed [core][set][way] (L1) and
  // [set][way] (L2): the tags of one set are contiguous, so an associative
  // search touches one or two host cache lines instead of striding over
  // padded structs.
  std::vector<std::uintptr_t> l1_tags_;
  std::vector<std::uint64_t> l1_lru_;
  std::vector<std::uint16_t> l1_off_;  // last byte offset accessed in line
  std::vector<std::uint8_t> l1_mru_;   // per [core][set]: last way hit
  std::vector<std::uintptr_t> l2_tags_;  // [node][set][way]
  std::vector<std::uint64_t> l2_lru_;
  std::vector<CacheStats> stats_;
  std::unordered_map<std::uintptr_t, SharerMask> sharers_;
  std::uint64_t tick_ = 0;
};

}  // namespace tmx::sim
