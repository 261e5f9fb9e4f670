// Abort attribution: the paper's Figure 5 diagnostic.
//
// The STM classifies each abort at the barrier that detects it
// (core/stm.cpp). When a read, a write or a commit finds its stripe's
// versioned lock held by another transaction, the lock word names that
// owner, and the owner's write set decides:
//
//   * true conflict  — the owner wrote the aborter's 8-byte word; the ORT
//     stripe detected a genuine data conflict;
//   * false abort    — the owner wrote only *other* words that share the
//     versioned lock under (addr >> shift) mod ORT_SIZE. This is the
//     allocator-induced aliasing of Figure 5: 16-byte-spaced nodes from
//     Hoard/TBB/TCMalloc land in one 32-byte stripe and logically disjoint
//     transactions kill each other;
//   * unattributed   — every other abort: validation failures, explicit
//     restarts, OOM, hardware-path aborts. Only the sim engine classifies
//     (its lock owners are parked at a yield, so their write sets hold
//     still); a --engine threads run tallies nothing.
//
// Each simulated run tallies its aborts in its own context
// (sim::RunContext::aborts), per stripe, bounded by the stripes that
// aborted. The report ranks stripes by abort count (top-K) so the dominant
// aliasing sites pop out, with a sample address pair as evidence.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace tmx::obs {

class MetricsRegistry;

// How a lock collision was classified.
enum class Conflict : std::uint8_t { kUnclassified, kTrue, kFalse };

struct StripeAttribution {
  std::uint64_t stripe = 0;
  std::uint64_t aborts = 0;
  std::uint64_t true_conflicts = 0;
  std::uint64_t false_aborts = 0;
  std::uint64_t unattributed = 0;
  // Evidence from the first classified abort on this stripe: the aborter's
  // word and the owner's word whose write acquired the stripe's lock (equal
  // for a true conflict whose owner acquired the lock on that word).
  std::uint64_t sample_aborter_addr = 0;
  std::uint64_t sample_owner_addr = 0;
};

// Abort tallies of one run, or of several folded together.
struct AbortTally {
  std::uint64_t aborts = 0;
  std::uint64_t true_conflicts = 0;
  std::uint64_t false_aborts = 0;
  // Keyed by stripe. Allocated by the first abort at an address, so an
  // empty tally is constant-initializable, as the idle run context is.
  std::unique_ptr<std::unordered_map<std::uint64_t, StripeAttribution>>
      stripes;

  // Counts one abort. `addr` is its faulting address (0: none) and
  // `stripe` that address's stripe; `owner_addr` is the word whose write
  // acquired the lock it collided with.
  void count(Conflict kind, std::uint64_t addr, std::uint64_t stripe,
             std::uint64_t owner_addr);
  // Adds `o`'s counts. A stripe keeps its own sample when it has one.
  void add(const AbortTally& o);
};

struct AttributionReport {
  std::uint64_t total_aborts = 0;
  std::uint64_t true_conflicts = 0;
  std::uint64_t false_aborts = 0;
  std::uint64_t unattributed = 0;
  // Stripes sorted by abort count, descending; at most the requested top-K.
  std::vector<StripeAttribution> top;

  double false_abort_ratio() const {
    const std::uint64_t attributed = true_conflicts + false_aborts;
    return attributed == 0
               ? 0.0
               : static_cast<double>(false_aborts) /
                     static_cast<double>(attributed);
  }
};

// The report of `tally`, keeping its `top_k` stripes with the most aborts.
AttributionReport make_report(const AbortTally& tally, std::size_t top_k = 8);

// Prints the human-readable top-K stripe table.
void print_report(const AttributionReport& report, std::FILE* out = stdout);

// Publishes the report's totals as counters/gauges, prefixed (e.g.
// "attribution.false_aborts").
void publish_metrics(const AttributionReport& report, MetricsRegistry& reg,
                     const std::string& prefix = "attribution.");

}  // namespace tmx::obs
