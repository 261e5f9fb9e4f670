#include "sim/numa.hpp"

#include <algorithm>

#include "sim/context.hpp"
#include "util/macros.hpp"

namespace tmx::sim {

void NumaRegistry::configure(const Topology& topo, unsigned threads) {
  std::lock_guard<std::mutex> g(mu);
  nodes = topo.nodes == 0 ? 1 : topo.nodes;
  cores_per_node = topo.resolved_cores_per_node(threads);
}

unsigned numa_nodes() {
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  return s.nodes;
}

unsigned numa_cores_per_node() {
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  return s.cores_per_node;
}

unsigned numa_node_of_core(unsigned core) {
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  const unsigned node = core / s.cores_per_node;
  return node < s.nodes ? node : s.nodes - 1;
}

void numa_register_range(const void* base, std::size_t len, unsigned node) {
  if (len == 0) return;
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  NumaRegistry::Range r;
  r.base = reinterpret_cast<std::uintptr_t>(base);
  r.end = r.base + len;
  r.node = node < s.nodes ? node : s.nodes - 1;
  const auto it = std::lower_bound(
      s.ranges.begin(), s.ranges.end(), r,
      [](const NumaRegistry::Range& a, const NumaRegistry::Range& b) {
        return a.base < b.base;
      });
  s.ranges.insert(it, r);
}

void numa_unregister_range(const void* base) {
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  const auto key = reinterpret_cast<std::uintptr_t>(base);
  const auto it = std::lower_bound(
      s.ranges.begin(), s.ranges.end(), key,
      [](const NumaRegistry::Range& a, std::uintptr_t b) { return a.base < b; });
  if (it != s.ranges.end() && it->base == key) s.ranges.erase(it);
}

int numa_home_node(std::uintptr_t addr) {
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  // First range with base > addr; the candidate is its predecessor.
  auto it = std::upper_bound(
      s.ranges.begin(), s.ranges.end(), addr,
      [](std::uintptr_t a, const NumaRegistry::Range& b) { return a < b.base; });
  if (it == s.ranges.begin()) return -1;
  --it;
  return addr < it->end ? static_cast<int>(it->node) : -1;
}

std::size_t numa_range_count() {
  NumaRegistry& s = context().numa;
  std::lock_guard<std::mutex> g(s.mu);
  return s.ranges.size();
}

}  // namespace tmx::sim
