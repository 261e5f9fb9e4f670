// Deterministic trace replay: feed one recorded request stream through any
// registered allocator model and measure the placement it produces.
//
// This is the paper's core experiment inverted. Instead of running a
// workload under four allocators (four different interleavings, four
// different request streams), replay fixes the request stream — every
// malloc/free with its thread, size, region and virtual cycle — and varies
// only the allocator answering it. Differences in the resulting ORT-stripe
// collisions (Figure 5's false-abort mechanism), size-class profile and L1
// behaviour are then attributable to placement alone, which is exactly the
// paper's claim about why allocators matter for TM.
//
// Determinism contract:
//   * Sequential-phase records execute inline on the calling thread, in
//     record order, with sim hooks as no-ops — matching capture.
//   * Parallel-phase records execute as sim fibers (one per recorded
//     thread). Each fiber advances its virtual clock to the record's cycle
//     before issuing the operation, so operations are issued in recorded
//     (cycle, tid) order — the same discipline the capture scheduler used.
//     A capture stamps a malloc at allocator *entry* (instrument.cpp),
//     so re-paying the allocator's internal cost cannot push an operation
//     past its successor on the same thread.
//   * A free waits until the malloc it matches (pre-computed from the
//     record stream) has been replayed, preserving lifetime overlap even
//     when replay-side costs shift completion times.
//   * Stripe statistics are computed post-hoc over the replayed addresses
//     in record order, so they depend only on placement — not on the
//     replay schedule.
//
// A capture holds every operation of its runs, each block as its offset
// in the run's address space (harness/run_context.hpp). With the cache
// model off, replaying a capture through the allocator that recorded it
// puts every block at its recorded offset in the replay's address space
// and reproduces the stripe statistics exactly
// (tests/test_determinism.cpp pins this). With it on, a replay's probes —
// its own, not the capture's accesses — add latency the capture never
// paid, so the schedule may drift from the captured one. Either way a
// replay repeats: harness::run_replay opens a fresh run context per
// replay and every probed address is carved from its address space
// (sim/address_space.hpp), so a seeded replay gives the same numbers in
// every process, on any host thread, after any other run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/instrument.hpp"
#include "replay/trace_format.hpp"
#include "sim/engine.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::replay {

// ORT-stripe placement statistics over a set of live blocks. A "collision"
// is a block whose stripe range overlaps a block already live on the same
// stripe — from another thread (the paper's false-abort precondition) or
// the same thread (benign for conflicts, still a locality signal).
struct StripeStats {
  unsigned shift = 5;
  unsigned ort_log2 = 20;
  std::uint64_t blocks = 0;  // mallocs with a non-null replayed address
  std::uint64_t cross_thread_collisions = 0;
  std::uint64_t same_thread_collisions = 0;
  std::uint64_t peak_live_blocks = 0;
  std::uint64_t hottest_stripe = 0;
  std::uint64_t hottest_stripe_collisions = 0;

  double collision_ratio() const {
    return blocks == 0 ? 0.0
                       : static_cast<double>(cross_thread_collisions) /
                             static_cast<double>(blocks);
  }

  bool operator==(const StripeStats&) const = default;
};

struct ReplayResult {
  bool ok = false;
  std::string error;  // set when !ok
  std::string allocator;

  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t oom_records = 0;      // captured allocations that returned null
  std::uint64_t unmatched_frees = 0;  // no live malloc in the trace
  std::uint64_t tx_begins = 0;
  std::uint64_t tx_commits = 0;
  std::uint64_t tx_aborts = 0;

  std::uint64_t cycles = 0;   // replay makespan (max over parallel phases)
  double seconds = 0.0;
  std::uint64_t os_reserved = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t live_at_end = 0;

  // FNV-1a over the replayed malloc addresses' offsets in the address
  // space, in record order — the cheap equality check the determinism
  // tests and CI compare.
  std::uint64_t address_fingerprint = 0;
  // The replayed malloc addresses' offsets in the address space, one per
  // malloc record, in record order (null stays 0; no model places a block
  // at offset 0, the base end of the space).
  std::vector<std::uint64_t> addresses;

  alloc::AllocationProfile profile;
  StripeStats stripes;
  sim::CacheStats cache;
};

// Why `trace` cannot be replayed — a shape invariant it breaks — or "" when
// it can.
std::string check_trace(const Trace& trace);

// The replay workload: replays `trace` (check_trace must accept it)
// through `allocator`, running each parallel phase under `run`, whose
// thread count is the trace's. Stripe statistics use the ORT geometry
// `shift` and `ort_log2`, 0 meaning the trace header's. The profile comes
// from the stack's InstrumentingAllocator, when it has one. Opening the
// run and building the stack is harness::run_replay's (harness/replay.hpp).
ReplayResult replay_trace(const Trace& trace, alloc::Allocator& allocator,
                          const sim::RunConfig& run, unsigned shift,
                          unsigned ort_log2);

// Stripe statistics of the *recorded* addresses (no replay): what the
// capture allocator actually did, comparable against any replay's stripes.
StripeStats recorded_stripe_stats(const Trace& trace, unsigned shift = 0,
                                  unsigned ort_log2 = 0);

// Side-by-side placement table, one row per replay.
void print_comparison(const Trace& trace,
                      const std::vector<ReplayResult>& results, FILE* out);

// Publishes one replay's numbers into the unified metrics registry.
void publish_metrics(const ReplayResult& r, obs::MetricsRegistry& reg,
                     const std::string& prefix = "replay.");

}  // namespace tmx::replay
