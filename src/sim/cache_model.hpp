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
// NUMA extension: when the geometry declares more than one node, each node
// gets its own L2 bank (cores consult their node's bank only) and an L2
// miss is charged `memory` or `remote_memory` latency depending on whether
// sim::numa_home_node places the line on the accessing core's node;
// likewise cross-node invalidations cost `remote_coherence`. With
// nodes == 1 every access is node-local and the model is bit-for-bit the
// original flat machine.
//
// The hierarchy is not inclusive: an L2 eviction leaves L1 copies in place,
// and each node has its own L2 bank, so the L2 tags cannot double as the
// sharer directory; the model keeps its own (SharerDirectory below).
#pragma once

#include <cstdint>
#include <string>
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
  // Out of line on purpose: perfbench's traced link interposes on it.
  std::uint64_t access(unsigned core, std::uintptr_t addr, unsigned bytes,
                       bool write);

  const CacheStats& core_stats(unsigned core) const { return stats_[core]; }
  CacheStats total_stats() const;
  const CacheGeometry& geometry() const { return geo_; }

 private:
  // An empty way. Tags are line-aligned addresses, so all-ones can never be
  // a real tag and doubles as the "invalid" marker — no separate valid bit.
  static constexpr std::uintptr_t kNoTag = ~std::uintptr_t{0};

  // Each line's L1 sharer set as a core bitmask: write-invalidate consults
  // it instead of scanning every core's set, so a write costs O(sharers)
  // rather than O(cores) — the difference between 8 and 256 simulated
  // cores. Invariant: bit (core) is set iff the line's tag is in that
  // core's L1; maintained at fill, eviction and invalidation. A line leaves
  // the table when its mask empties, which bounds the table by total L1
  // capacity.
  //
  // One flat open-addressed table keyed by line address: linear probing
  // from a multiplicative (Fibonacci) hash, backward-shift deletion (so no
  // tombstones), doubling at load 1/2. A slot is the key word followed by
  // ceil(cores / 64) mask words — 16 bytes at 8 cores — and the table
  // allocates only when it grows.
  class SharerDirectory {
   public:
    explicit SharerDirectory(unsigned cores);
    // The mask words of `line`, or nullptr when no L1 holds it. Valid
    // until the next add or remove.
    std::uint64_t* find(std::uintptr_t line);
    // Adds `core` to the sharers of `line`.
    void add(std::uintptr_t line, unsigned core);
    // Removes `core` from the sharers of `line`, which must list it;
    // erases the line when no sharer is left.
    void remove(std::uintptr_t line, unsigned core);
    unsigned words() const { return words_; }

   private:
    std::size_t home(std::uintptr_t line) const {
      return static_cast<std::size_t>(
          (line * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    std::uint64_t* slot(std::size_t i) { return &slots_[i * stride_]; }
    // First slot at or after `line`'s home holding `line` or no key.
    std::size_t probe(std::uintptr_t line);
    void grow();

    unsigned words_;
    unsigned stride_;  // 1 + words_
    unsigned shift_;   // 64 - log2(capacity)
    std::size_t mask_;  // capacity - 1
    std::size_t size_ = 0;
    std::vector<std::uint64_t> slots_;
  };

  std::uint64_t access_line(unsigned core, std::uintptr_t line_addr,
                            unsigned offset, bool write);

  std::size_t l1_base(unsigned core, std::size_t set) const {
    return (static_cast<std::size_t>(core) * l1_sets_ + set) * geo_.l1_ways;
  }
  // Way holding `line_addr` within the set starting at `tags`, or -1.
  // find_way is branch-free and serves the L1 sets: one host cache line of
  // tags, hot, hit at a data-dependent way. find_way_scan exits early and
  // serves the 24-way L2 sets: three host lines, often cold, so reading
  // only up to the hit costs less than a mispredicted exit.
  static int find_way(const std::uintptr_t* tags, unsigned ways,
                      std::uintptr_t line_addr);
  static int find_way_scan(const std::uintptr_t* tags, unsigned ways,
                           std::uintptr_t line_addr);
  // LRU victim way: the first empty way, else the least recently used,
  // else the lowest. Empty ways carry stamp 0 and real stamps start at 1,
  // so this is the first way with the lowest stamp. Branch-free for L1
  // sets, early exit at an empty way for L2 sets, as above.
  static unsigned victim_way(const std::uint64_t* lru, unsigned ways);
  static unsigned victim_way_scan(const std::uint64_t* lru, unsigned ways);

  CacheGeometry geo_;
  LatencyModel lat_;
  unsigned line_shift_;  // log2(line_size)
  unsigned l1_sets_;     // powers of two: sets are masks of the line number
  unsigned l2_sets_;
  std::vector<unsigned> core_node_;  // node of each core
  // Structure-of-arrays line storage, indexed [core][set][way] (L1) and
  // [set][way] (L2): the tags of one set are contiguous, so an associative
  // search touches one or two host cache lines instead of striding over
  // padded structs.
  std::vector<std::uintptr_t> l1_tags_;
  std::vector<std::uint64_t> l1_lru_;  // 0 for an empty way
  std::vector<std::uint16_t> l1_off_;  // last byte offset accessed in line
  std::vector<std::uintptr_t> l2_tags_;  // [node][set][way]
  std::vector<std::uint64_t> l2_lru_;
  std::vector<CacheStats> stats_;
  SharerDirectory sharers_;
  std::uint64_t tick_ = 0;
};

}  // namespace tmx::sim
