// Two-level NUMA machine model shared by the engine, the cache model and
// the memory plane.
//
// The paper's testbed is a single-socket 8-core Xeon; scale-out studies
// (ROADMAP item 5, arXiv 2206.01359) need a `nodes x cores_per_node`
// topology where the *placement* of a page decides its access latency. The
// simulator keeps that placement in a process-wide registry:
//
//  * the engine assigns each fiber a core and a node from
//    RunConfig::topology and answers numa_self_node() for the running
//    fiber;
//  * the page provider registers every reservation's home node here
//    (first-touch / interleave / bind policies, see alloc/page_provider);
//  * the cache model asks numa_home_node(addr) on its miss path and
//    charges remote-memory latency when the home differs from the
//    accessing core's node;
//  * the STM's optional sharded ORT maps an address to its home node's
//    lock stripe, falling back to the global table for addresses with no
//    registered home.
//
// Everything here is host-level bookkeeping: registration and lookup never
// tick virtual time or yield, so enabling a multi-node topology perturbs
// no schedule by itself (and with a single node the model degenerates to
// exactly the pre-NUMA simulator — the golden determinism constants pin
// this). The registry is guarded by a host std::mutex, NOT sim::SpinLock,
// which would inject virtual-time events.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tmx::sim {

// Machine shape for a simulated run. The default (one node, auto cores) is
// the paper's flat 8-core machine. cores_per_node == 0 derives
// ceil(threads / nodes) so every requested logical thread gets a core;
// when nodes * cores_per_node < threads, fibers share cores round-robin
// (core = id % total_cores): they share that core's L1 and NUMA node.
struct Topology {
  unsigned nodes = 1;
  unsigned cores_per_node = 0;  // 0 = auto: ceil(threads / nodes)

  unsigned resolved_cores_per_node(unsigned threads) const {
    const unsigned n = nodes == 0 ? 1 : nodes;
    if (cores_per_node != 0) return cores_per_node;
    const unsigned per = (threads + n - 1) / n;
    return per == 0 ? 1 : per;
  }
};

// Installs the topology for subsequent runs and range registrations.
// Called by run_parallel on entry; harnesses call it *before* building
// allocators so interleave/bind policies know the node count. Idempotent.
void numa_configure(const Topology& topo, unsigned threads);

unsigned numa_nodes();
unsigned numa_cores_per_node();
unsigned numa_node_of_core(unsigned core);

// Node of the calling fiber's core; 0 outside a simulated region (the main
// thread plays the role of a process pinned to node 0, so sequential setup
// phases first-touch onto node 0 like a real single-threaded init would).
int numa_self_node();

// ---- Address -> home-node registry ----
// Ranges come from page-provider reservations and never overlap (they are
// distinct mmaps). Unregister on unmap or stale entries would mis-home
// recycled host addresses.
void numa_register_range(const void* base, std::size_t len, unsigned node);
void numa_unregister_range(const void* base);

// Home node of `addr`, or -1 when no registered range covers it (foreign
// memory: host globals, stacks, the ORT itself).
int numa_home_node(std::uintptr_t addr);

// Registered-range count (tests/introspection).
std::size_t numa_range_count();

}  // namespace tmx::sim
