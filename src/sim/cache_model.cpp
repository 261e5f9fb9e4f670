#include "sim/cache_model.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/numa.hpp"

namespace tmx::sim {

CacheModel::CacheModel(const CacheGeometry& geo, const LatencyModel& lat)
    : geo_(geo), lat_(lat), sharers_(geo.cores) {
  TMX_ASSERT(is_pow2(geo.line_size));
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
}

CacheStats CacheModel::total_stats() const {
  CacheStats t;
  for (const auto& s : stats_) t.add(s);
  return t;
}

CacheModel::SharerDirectory::SharerDirectory(unsigned cores)
    : words_((std::max(cores, 1u) + 63) / 64), stride_(words_ + 1) {
  // Start small and let the table grow as lines arrive.
  constexpr std::size_t slots = 16;
  shift_ = 64 - log2_floor(slots);
  mask_ = slots - 1;
  slots_.assign(slots * stride_, 0);
  for (std::size_t i = 0; i <= mask_; ++i) slot(i)[0] = kNoTag;
}

std::size_t CacheModel::SharerDirectory::probe(std::uintptr_t line) {
  std::size_t i = home(line);
  while (slot(i)[0] != line && slot(i)[0] != kNoTag) i = (i + 1) & mask_;
  return i;
}

std::uint64_t* CacheModel::SharerDirectory::find(std::uintptr_t line) {
  std::uint64_t* e = slot(probe(line));
  return e[0] == line ? e + 1 : nullptr;
}

void CacheModel::SharerDirectory::add(std::uintptr_t line, unsigned core) {
  std::uint64_t* e = slot(probe(line));
  if (e[0] != line) {
    if (2 * (size_ + 1) > mask_ + 1) {
      grow();
      e = slot(probe(line));
    }
    e[0] = line;
    std::fill(e + 1, e + stride_, 0);
    ++size_;
  }
  e[1 + (core >> 6)] |= std::uint64_t{1} << (core & 63);
}

void CacheModel::SharerDirectory::remove(std::uintptr_t line, unsigned core) {
  std::size_t i = probe(line);
  std::uint64_t* e = slot(i);
  TMX_ASSERT(e[0] == line);  // invariant: a cached tag has an entry
  e[1 + (core >> 6)] &= ~(std::uint64_t{1} << (core & 63));
  std::uint64_t any = 0;
  for (unsigned w = 1; w < stride_; ++w) any |= e[w];
  if (any != 0) return;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home slot.
  for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
    std::uint64_t* next = slot(j);
    if (next[0] == kNoTag) break;
    if (((j - home(next[0])) & mask_) >= ((j - i) & mask_)) {
      std::copy(next, next + stride_, slot(i));
      i = j;
    }
  }
  slot(i)[0] = kNoTag;
  --size_;
}

void CacheModel::SharerDirectory::grow() {
  const std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(2 * (mask_ + 1) * stride_, 0);
  mask_ = 2 * mask_ + 1;
  --shift_;
  for (std::size_t i = 0; i <= mask_; ++i) slot(i)[0] = kNoTag;
  for (std::size_t o = 0; o < old.size(); o += stride_) {
    if (old[o] == kNoTag) continue;
    std::copy(&old[o], &old[o] + stride_, slot(probe(old[o])));
  }
}

// Compares every way, keeping the lowest match with a conditional move.
// (A compare bitmask plus ctz measured slower: each way then costs a
// variable shift.)
int CacheModel::find_way(const std::uintptr_t* tags, unsigned ways,
                         std::uintptr_t line_addr) {
  int found = -1;
  for (unsigned w = ways; w-- > 0;) {
    found = tags[w] == line_addr ? static_cast<int>(w) : found;
  }
  return found;
}

int CacheModel::find_way_scan(const std::uintptr_t* tags, unsigned ways,
                              std::uintptr_t line_addr) {
  for (unsigned w = 0; w < ways; ++w) {
    if (tags[w] == line_addr) return static_cast<int>(w);
  }
  return -1;
}

// A conditional-move minimum; the strict compare keeps the lowest way on
// ties.
unsigned CacheModel::victim_way(const std::uint64_t* lru, unsigned ways) {
  unsigned v = 0;
  std::uint64_t oldest = lru[0];
  for (unsigned w = 1; w < ways; ++w) {
    const bool older = lru[w] < oldest;
    v = older ? w : v;
    oldest = older ? lru[w] : oldest;
  }
  return v;
}

unsigned CacheModel::victim_way_scan(const std::uint64_t* lru,
                                     unsigned ways) {
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

std::uint64_t CacheModel::access_line(unsigned core, std::uintptr_t line_addr,
                                      unsigned offset, bool write) {
  ++tick_;
  CacheStats& st = stats_[core];
  ++st.accesses;
  std::uint64_t latency = 0;
  const unsigned node = core_node_[core];
  const std::uintptr_t line_no = line_addr >> line_shift_;

  const std::size_t set = line_no & (l1_sets_ - 1);
  const std::size_t base = l1_base(core, set);
  std::uintptr_t* tags = &l1_tags_[base];
  int way = find_way(tags, geo_.l1_ways, line_addr);
  if (way >= 0) {
    ++st.l1_hits;
    latency = lat_.l1_hit;
  } else {
    ++st.l1_misses;
    // Consult this node's L2 bank (the shared L2 of the flat machine).
    const std::size_t set2 = line_no & (l2_sets_ - 1);
    const std::size_t base2 =
        (static_cast<std::size_t>(node) * l2_sets_ + set2) * geo_.l2_ways;
    const int w2 = find_way_scan(&l2_tags_[base2], geo_.l2_ways, line_addr);
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
      l2_tags_[base2 + v2] = line_addr;
      l2_lru_[base2 + v2] = tick_;
    }
    TMX_OBS_EVENT(obs::EventKind::kCacheMiss, line_addr, latency,
                  /*miss level=*/w2 >= 0 ? 1 : 2);
    // Fill L1, updating the sharer directory: the victim line (if any)
    // leaves this core, the new line enters it.
    way = static_cast<int>(victim_way(&l1_lru_[base], geo_.l1_ways));
    if (tags[way] != kNoTag) sharers_.remove(tags[way], core);
    tags[way] = line_addr;
    sharers_.add(line_addr, core);
  }
  l1_lru_[base + way] = tick_;
  l1_off_[base + way] = static_cast<std::uint16_t>(offset);

  if (write) {
    // Write-invalidate coherence: purge the line from every other sharing
    // core's L1. The sharer mask lists exactly the cores whose L1 holds
    // the line, visited in ascending id as a full scan would, so the cost
    // is O(sharers) instead of O(cores). Afterwards only the writer holds
    // it.
    std::uint64_t* mask = sharers_.find(line_addr);
    TMX_ASSERT(mask != nullptr);
    for (unsigned wd = 0; wd < sharers_.words(); ++wd) {
      const std::uint64_t own =
          (core >> 6) == wd ? std::uint64_t{1} << (core & 63) : 0;
      std::uint64_t bits = mask[wd] & ~own;
      mask[wd] = own;
      while (bits != 0) {
        const unsigned c =
            (wd << 6) + static_cast<unsigned>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::size_t rbase = l1_base(c, set);
        const int rw = find_way(&l1_tags_[rbase], geo_.l1_ways, line_addr);
        TMX_ASSERT(rw >= 0);  // mask invariant: bit set => tag present
        l1_tags_[rbase + rw] = kNoTag;
        l1_lru_[rbase + rw] = 0;  // empty ways are the first victims
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
