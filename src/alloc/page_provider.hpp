// Aligned virtual-memory chunks for the allocator models.
//
// Every allocator obtains its backing store here rather than from ::malloc:
// reservations are carved from the run's address space
// (sim/address_space.hpp), so the models control block alignment exactly
// (64MB arenas for the Glibc model, 64KB superblocks for Hoard, 16KB blocks
// for TBB, page runs for TCMalloc) — the alignments the paper's ORT-mapping
// analysis depends on.
//
// NUMA placement: each reservation is assigned a home node under the
// provider's policy (first-touch by the reserving fiber's node, round-robin
// interleave, or a fixed bind) and registered with the run's NUMA
// registry, so the cache model charges remote-memory latency for off-node
// lines and the sharded ORT can stripe by home node. Placement is pure
// bookkeeping — it never ticks virtual time beyond the existing syscall
// cost — and on a single-node topology every reservation homes on node 0.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "sim/context.hpp"
#include "sim/sync.hpp"

namespace tmx::alloc {

// Placement policies (first-touch, interleave, bind; see sim/numa.hpp).
// Every provider snapshots the run context's policy at construction, so
// wrapped inner allocators inherit it without plumbing.
using NumaOptions = sim::NumaOptions;

class PageProvider {
 public:
  PageProvider() = default;
  ~PageProvider();
  PageProvider(const PageProvider&) = delete;
  PageProvider& operator=(const PageProvider&) = delete;

  // Returns `size` bytes of zeroed memory whose base address is a multiple
  // of `alignment` (a power of two). Charges a simulated syscall cost.
  // Returns nullptr when the address space refuses the carve or the fault
  // plane simulates exhaustion — callers must treat that as a recoverable
  // OOM.
  void* reserve(std::size_t size, std::size_t alignment);

  // Like reserve(), but homes the reservation on `node` regardless of the
  // provider's policy. The phase allocator uses this to keep a relocated
  // block on its original home node, so compaction never silently converts
  // local memory into remote memory.
  void* reserve_on_node(std::size_t size, std::size_t alignment,
                        unsigned node);

  // Returns a reservation obtained from reserve()/reserve_on_node() to the
  // address space. `base` must be a reservation base address; frees it
  // whole, unregisters its NUMA range and decrements total/per-node bytes
  // (peak_reserved() keeps its high-water mark). Charges a syscall cost.
  // Returns false (and does nothing) if `base` is not a live reservation.
  bool release(void* base);

  // Moves the reservation at `base` to a fresh carve on the same home node
  // with the same length and alignment, copying the contents, then
  // releases the old one. Returns the new base, or nullptr when the fault
  // plane or the address space refuses the new carve — in that case the
  // original reservation is untouched and still valid, so callers degrade
  // gracefully to not compacting. Charges a syscall cost for the new
  // mapping plus the release.
  void* remap(void* base);

  // Home node recorded for the reservation at `base` (-1 if unknown).
  int reservation_node(const void* base) const;

  // NUMA placement policy for subsequent reservations.
  void set_numa(const NumaOptions& o) { numa_ = o; }
  const NumaOptions& numa() const { return numa_; }

  // Bytes homed on `node` (clamped to kMaxNodes buckets).
  static constexpr unsigned kMaxNodes = 8;
  std::size_t node_reserved(unsigned node) const {
    return node < kMaxNodes
               ? node_reserved_[node].load(std::memory_order_relaxed)
               : 0;
  }

  std::size_t total_reserved() const {
    return total_.load(std::memory_order_relaxed);
  }

  // High-water mark of total_reserved(). Models that never release keep
  // peak == total; the phase allocator's whole-phase reclaim makes the two
  // diverge, and the prof plane samples both so the divergence is visible.
  std::size_t peak_reserved() const {
    return peak_.load(std::memory_order_relaxed);
  }

  // total_reserved() expressed in whole 4KB pages (rounded up), the unit the
  // prof time series reports as "reserved pages" (simulated RSS).
  static constexpr std::size_t kPageSize = 4096;
  std::size_t reserved_pages() const {
    return (total_reserved() + kPageSize - 1) / kPageSize;
  }

 private:
  struct Mapping {
    void* base;
    std::size_t length;
    unsigned node;  // home node, for remap() and release() accounting
  };

  unsigned home_node_for_next_reservation();
  void* reserve_impl(std::size_t size, std::size_t alignment,
                     int node_override);

  sim::AddressSpace& space_ = sim::context().space;
  mutable sim::SpinLock lock_;
  std::vector<Mapping> mappings_;
  std::atomic<std::size_t> total_{0};
  std::atomic<std::size_t> peak_{0};
  NumaOptions numa_ = sim::context().numa_policy;
  std::atomic<unsigned> interleave_next_{0};
  std::atomic<std::size_t> node_reserved_[kMaxNodes]{};
};

}  // namespace tmx::alloc
