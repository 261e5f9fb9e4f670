#include "sim/cache_model.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/address_space.hpp"
#include "sim/numa.hpp"

namespace tmx::sim {

CacheModel::CacheModel(const CacheGeometry& geo, const LatencyModel& lat)
    : geo_(geo), lat_(lat), words_((std::max(geo.cores, 1u) + 63) / 64) {
  // 32 bytes and up keep kNoTag out of a window's line numbers; 256 and
  // below keep a line offset in a byte.
  TMX_ASSERT(is_pow2(geo.line_size) && geo.line_size >= 32 &&
             geo.line_size <= 256);
  if (geo_.nodes == 0) geo_.nodes = 1;
  const unsigned cores_per_node =
      geo_.cores_per_node != 0
          ? geo_.cores_per_node
          : std::max(1u, (geo_.cores + geo_.nodes - 1) / geo_.nodes);
  core_node_.resize(geo.cores);
  for (unsigned c = 0; c < geo.cores; ++c) {
    core_node_[c] = std::min(c / cores_per_node, geo_.nodes - 1);
  }
  line_shift_ = log2_floor(geo.line_size);
  l1_sets_ = static_cast<unsigned>(geo.l1_size / (geo.line_size * geo.l1_ways));
  l2_sets_ = static_cast<unsigned>(geo.l2_size / (geo.line_size * geo.l2_ways));
  TMX_ASSERT(is_pow2(l1_sets_) && is_pow2(l2_sets_));
  const std::size_t l1_lines =
      static_cast<std::size_t>(geo.cores) * l1_sets_ * geo.l1_ways;
  // One private L2 bank per node; the single-node machine is the paper's
  // original shared L2.
  const std::size_t l2_lines = static_cast<std::size_t>(geo_.nodes) *
                               l2_sets_ * geo.l2_ways;
  l1_tags_.assign(l1_lines, kNoTag);
  l1_lru_.assign(l1_lines, 0);
  l1_off_.assign(l1_lines, 0);
  l2_tags_.assign(l2_lines, kNoTag);
  l2_lru_.assign(l2_lines, 0);
  stats_.assign(geo.cores, {});
  holders_.assign(std::size_t{l1_sets_} * kBuckets * words_, 0);
}

CacheStats CacheModel::total_stats() const {
  CacheStats t;
  for (const auto& s : stats_) t.add(s);
  return t;
}

void CacheModel::recompute_holder(unsigned core, std::size_t set,
                                  unsigned b) {
  const Tag* tags = &l1_tags_[l1_base(core, set)];
  bool held = false;
  for (unsigned w = 0; w < geo_.l1_ways; ++w) {
    held |= tags[w] != kNoTag && bucket(tags[w]) == b;
  }
  std::uint64_t& word = holder_mask(set, b)[core >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (core & 63);
  word = held ? word | bit : word & ~bit;
}

// Compares every way, keeping the lowest match with a conditional move.
// (A compare bitmask plus ctz measured slower: each way then costs a
// variable shift.)
int CacheModel::find_way(const Tag* tags, unsigned ways, Tag tag) {
  int found = -1;
  for (unsigned w = ways; w-- > 0;) {
    found = tags[w] == tag ? static_cast<int>(w) : found;
  }
  return found;
}

int CacheModel::find_way_scan(const Tag* tags, unsigned ways, Tag tag) {
  for (unsigned w = 0; w < ways; ++w) {
    if (tags[w] == tag) return static_cast<int>(w);
  }
  return -1;
}

// A conditional-move minimum; the strict compare keeps the lowest way on
// ties.
unsigned CacheModel::victim_way(const Stamp* lru, unsigned ways) {
  unsigned v = 0;
  Stamp oldest = lru[0];
  for (unsigned w = 1; w < ways; ++w) {
    const bool older = lru[w] < oldest;
    v = older ? w : v;
    oldest = older ? lru[w] : oldest;
  }
  return v;
}

unsigned CacheModel::victim_way_scan(const Stamp* lru, unsigned ways) {
  unsigned v = 0;
  for (unsigned w = 0; w < ways; ++w) {
    if (lru[w] == 0) return w;
    if (lru[w] < lru[v]) v = w;
  }
  return v;
}

std::uint64_t CacheModel::access(unsigned core, std::uintptr_t addr,
                                 unsigned bytes, bool write) {
  TMX_ASSERT(core < geo_.cores);
  if (bytes == 0) bytes = 1;
  const std::uintptr_t first = round_down(addr, geo_.line_size);
  const std::uintptr_t last = round_down(addr + bytes - 1, geo_.line_size);
  std::uint64_t latency = 0;
  for (std::uintptr_t line = first; line <= last; line += geo_.line_size) {
    const unsigned off =
        line == first ? static_cast<unsigned>(addr - first) : 0;
    latency += access_line(core, line, off, write);
  }
  return latency;
}

// Each set's nonzero stamps become their ranks 1..k among the set's stamps.
// Stamps within a set are distinct (each line access stamps one way per
// set it touches), so the order — and with it every victim choice — is
// kept exactly.
void CacheModel::renormalize_stamps() {
  std::vector<Stamp> rank(std::max(geo_.l1_ways, geo_.l2_ways));
  const auto renumber = [&rank](std::vector<Stamp>& lru, unsigned ways) {
    for (std::size_t s = 0; s < lru.size(); s += ways) {
      Stamp* set = &lru[s];
      for (unsigned w = 0; w < ways; ++w) {
        rank[w] = 0;
        if (set[w] == 0) continue;
        for (unsigned o = 0; o < ways; ++o) {
          rank[w] += set[o] != 0 && set[o] <= set[w];
        }
      }
      std::copy_n(rank.begin(), ways, set);
    }
  };
  renumber(l1_lru_, geo_.l1_ways);
  renumber(l2_lru_, geo_.l2_ways);
  tick_ = std::max(geo_.l1_ways, geo_.l2_ways);
}

std::uint64_t CacheModel::access_line(unsigned core, std::uintptr_t line_addr,
                                      unsigned offset, bool write) {
  if (TMX_UNLIKELY(tick_ == kMaxStamp)) renormalize_stamps();
  ++tick_;
  CacheStats& st = stats_[core];
  ++st.accesses;
  std::uint64_t latency = 0;
  const unsigned node = core_node_[core];
  const Tag tag =
      static_cast<Tag>((line_addr & (AddressSpace::kBytes - 1)) >> line_shift_);

  const std::size_t set = tag & (l1_sets_ - 1);
  const std::size_t base = l1_base(core, set);
  Tag* tags = &l1_tags_[base];
  int way = find_way(tags, geo_.l1_ways, tag);
  if (way >= 0) {
    ++st.l1_hits;
    latency = lat_.l1_hit;
  } else {
    ++st.l1_misses;
    // Consult this node's L2 bank (the shared L2 of the flat machine).
    const std::size_t set2 = tag & (l2_sets_ - 1);
    const std::size_t base2 =
        (static_cast<std::size_t>(node) * l2_sets_ + set2) * geo_.l2_ways;
    const int w2 = find_way_scan(&l2_tags_[base2], geo_.l2_ways, tag);
    if (w2 >= 0) {
      ++st.l2_hits;
      latency = lat_.l2_hit;
      l2_lru_[base2 + w2] = tick_;
    } else {
      ++st.l2_misses;
      // Home-node distance decides the miss penalty. Memory with no
      // registered home (host globals, the ORT, fiber stacks) behaves as
      // first-touched by the process on node 0, like a kernel would place
      // a single-threaded init's pages.
      if (geo_.nodes > 1) {
        const int home = numa_home_node(line_addr);
        const unsigned home_node = home >= 0 ? static_cast<unsigned>(home) : 0;
        if (home_node == node) {
          ++st.numa_local;
          latency = lat_.memory;
        } else {
          ++st.numa_remote;
          latency = lat_.remote_memory;
        }
      } else {
        ++st.numa_local;
        latency = lat_.memory;
      }
      const unsigned v2 = victim_way_scan(&l2_lru_[base2], geo_.l2_ways);
      l2_tags_[base2 + v2] = tag;
      l2_lru_[base2 + v2] = tick_;
    }
    TMX_OBS_EVENT(obs::EventKind::kCacheMiss, line_addr, latency,
                  /*miss level=*/w2 >= 0 ? 1 : 2);
    // Fill L1. The new line's bucket gains this core; the victim's bucket
    // keeps it only if another of its lines is still in the set.
    way = static_cast<int>(victim_way(&l1_lru_[base], geo_.l1_ways));
    const Tag victim = tags[way];
    tags[way] = tag;
    const unsigned b = bucket(tag);
    holder_mask(set, b)[core >> 6] |= std::uint64_t{1} << (core & 63);
    if (victim != kNoTag && bucket(victim) != b) {
      recompute_holder(core, set, bucket(victim));
    }
  }
  l1_lru_[base + way] = tick_;
  l1_off_[base + way] = static_cast<std::uint8_t>(offset);

  if (write) {
    // Write-invalidate coherence: purge the line from every other core's
    // L1. The holder mask names every core whose set holds a line of this
    // bucket, visited in ascending id as a full scan would; a candidate
    // whose set holds only another line of the bucket is skipped, so the
    // cost is O(candidates) instead of O(cores). Afterwards only the writer
    // holds the line.
    const unsigned b = bucket(tag);
    const std::uint64_t* mask = holder_mask(set, b);
    for (unsigned wd = 0; wd < words_; ++wd) {
      const std::uint64_t own =
          (core >> 6) == wd ? std::uint64_t{1} << (core & 63) : 0;
      std::uint64_t bits = mask[wd] & ~own;
      while (bits != 0) {
        const unsigned c =
            (wd << 6) + static_cast<unsigned>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::size_t rbase = l1_base(c, set);
        const int rw = find_way(&l1_tags_[rbase], geo_.l1_ways, tag);
        if (rw < 0) continue;  // holds another line of the bucket
        l1_tags_[rbase + rw] = kNoTag;
        l1_lru_[rbase + rw] = 0;  // empty ways are the first victims
        recompute_holder(c, set, b);
        ++st.invalidations;
        const bool false_shared = l1_off_[rbase + rw] != offset;
        if (false_shared) ++st.false_sharing;
        latency += core_node_[c] == node ? lat_.coherence
                                         : lat_.remote_coherence;
        TMX_OBS_EVENT(obs::EventKind::kCacheInval, line_addr, c,
                      /*false sharing=*/false_shared ? 1 : 0);
      }
    }
  }
  return latency;
}

void publish_metrics(const CacheStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "accesses", stats.accesses);
  reg.set_counter(prefix + "l1_hits", stats.l1_hits);
  reg.set_counter(prefix + "l1_misses", stats.l1_misses);
  reg.set_counter(prefix + "l2_hits", stats.l2_hits);
  reg.set_counter(prefix + "l2_misses", stats.l2_misses);
  reg.set_counter(prefix + "invalidations", stats.invalidations);
  reg.set_counter(prefix + "false_sharing", stats.false_sharing);
  reg.set_counter(prefix + "numa_local", stats.numa_local);
  reg.set_counter(prefix + "numa_remote", stats.numa_remote);
  reg.set_gauge(prefix + "l1_miss_ratio", stats.l1_miss_ratio());
}

}  // namespace tmx::sim
