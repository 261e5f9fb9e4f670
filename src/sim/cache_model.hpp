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
// and each node has its own L2 bank, so the L2 tags cannot name a line's
// sharers. Write-invalidate finds them through per-set holder masks
// instead (holders_ below), which the model allocates once, in its
// constructor, and never again.
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
  std::size_t line_size = 64;  // a power of two in [32, 256]
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
  //
  // Lines are tagged by their line number within their
  // AddressSpace::kBytes-aligned window, so every line of one run's address
  // space has its own tag; lines of different windows alias.
  std::uint64_t access(unsigned core, std::uintptr_t addr, unsigned bytes,
                       bool write);

  const CacheStats& core_stats(unsigned core) const { return stats_[core]; }
  CacheStats total_stats() const;
  const CacheGeometry& geometry() const { return geo_; }

 private:
  // Tests only: sets the LRU clock, checks the holder masks.
  friend struct CacheModelTestPeer;

  // A line's tag: its line number within its window. With lines of at
  // least 32 bytes a window holds at most 2^31 lines, so all-ones is never
  // a real tag and doubles as the empty-way marker — no separate valid bit.
  using Tag = std::uint32_t;
  static constexpr Tag kNoTag = ~Tag{0};
  // LRU stamps: 0 marks an empty way, real stamps count up from 1. When
  // the clock reaches kMaxStamp every set's stamps are renumbered 1..k in
  // their order (renormalize_stamps), which picks the same victims as an
  // unbounded clock would.
  using Stamp = std::uint32_t;
  static constexpr Stamp kMaxStamp = ~Stamp{0};

  // Write-invalidate finds the other L1 copies of a line through holder
  // masks: one core bitmask of words_ words per (L1 set, bucket), where a
  // line's bucket is a hash of its whole tag. Invariant: bit c of
  // (set, bucket) is set iff core c's L1 set holds at least one line of
  // that bucket. A fill sets the filler's bit for the new line's bucket and
  // recomputes it for the victim's; a write visits the mask's other cores
  // in ascending id, skips those whose set holds only another line of the
  // bucket, and recomputes the bit of each core it invalidates. So a write
  // costs O(candidates) rather than O(cores), and a fill one bit set plus,
  // when the victim is of another bucket, a scan of the set's ways.
  static constexpr unsigned kBuckets = 64;
  // Multiplicative hash of the whole tag, top 6 bits. Tags that differ
  // only above the set index must spread: the glibc model's 64 MiB-aligned
  // arenas put every core's arena header at the same offset, and a hash of
  // the bits just above the set index sent them all to one bucket.
  static unsigned bucket(Tag tag) {
    return static_cast<unsigned>(static_cast<Tag>(tag * 0x9e3779b9u) >> 26);
  }
  std::uint64_t* holder_mask(std::size_t set, unsigned b) {
    return &holders_[(set * kBuckets + b) * words_];
  }
  // Sets or clears `core`'s bit of (set, b) from the core's L1 ways.
  void recompute_holder(unsigned core, std::size_t set, unsigned b);

  std::uint64_t access_line(unsigned core, std::uintptr_t line_addr,
                            unsigned offset, bool write);
  // Renumbers every set's stamps 1..k in their order and restarts the
  // clock above them; runs once every ~2^32 line accesses.
  void renormalize_stamps();

  std::size_t l1_base(unsigned core, std::size_t set) const {
    return (static_cast<std::size_t>(core) * l1_sets_ + set) * geo_.l1_ways;
  }
  // Way holding `tag` within the set starting at `tags`, or -1.
  // find_way is branch-free and serves the L1 sets: half a host cache line
  // of tags, hot, hit at a data-dependent way. find_way_scan exits early
  // and serves the 24-way L2 sets: two host lines, often cold, so reading
  // only up to the hit costs less than a mispredicted exit.
  static int find_way(const Tag* tags, unsigned ways, Tag tag);
  static int find_way_scan(const Tag* tags, unsigned ways, Tag tag);
  // LRU victim way: the first empty way, else the least recently used,
  // else the lowest. Empty ways carry stamp 0 and real stamps start at 1,
  // so this is the first way with the lowest stamp. Branch-free for L1
  // sets, early exit at an empty way for L2 sets, as above.
  static unsigned victim_way(const Stamp* lru, unsigned ways);
  static unsigned victim_way_scan(const Stamp* lru, unsigned ways);

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
  std::vector<Tag> l1_tags_;
  std::vector<Stamp> l1_lru_;  // 0 for an empty way
  std::vector<std::uint8_t> l1_off_;  // last byte offset accessed in line
  std::vector<Tag> l2_tags_;  // [node][set][way]
  std::vector<Stamp> l2_lru_;
  std::vector<CacheStats> stats_;
  unsigned words_;  // ceil(cores / 64): words per holder mask
  std::vector<std::uint64_t> holders_;  // [set][bucket][word]
  Stamp tick_ = 0;
};

}  // namespace tmx::sim
