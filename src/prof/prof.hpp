// tmx::prof — the heap & latency profiling plane.
//
// The paper's whole-run aggregates (Figures 5-8) hide the request-shaped
// pain production allocators cause: tail latency on individual mallocs and
// commits, live-bytes vs reserved-pages fragmentation, and RSS drift under
// churn (ROADMAP item 1). This plane adds those axes on top of tmx::obs:
//
//  * Per-operation latency — HDR log-linear histograms (hdr_histogram.hpp)
//    in virtual cycles for malloc, free, tx-commit (first begin -> commit,
//    i.e. including aborted attempts) and tx-abort-to-retry (abort -> next
//    begin on the same thread). p50/p95/p99/p99.9/max are published through
//    the metrics registry as "prof.lat.<op>.*".
//
//  * Allocation-site attribution — prof::ScopedSite (same shape as
//    check::ScopedSite) maintains a per-thread label stack; every live
//    block is attributed to the folded path active at its allocation
//    ("request;parse;node"). Per site and per epoch the registry tracks
//    allocation count/bytes, free count/bytes and cross-thread frees; per
//    site it tracks live and peak bytes. Export: CSV plus folded-stack
//    lines ("a;b;c <bytes>") consumable by standard flamegraph tooling.
//
//  * Time-series sampler — at a configurable virtual-cycle cadence the
//    plane snapshots live bytes, reserved pages/bytes (simulated RSS via
//    Allocator::os_reserved), the fragmentation ratio reserved/live, and
//    cumulative commit/abort/malloc/free counts, emitting a stable CSV for
//    RSS-drift-under-churn curves. Sampling happens inside the hooks (no
//    timer thread): a hook fires, sees virtual time passed the next due
//    tick, and snapshots — reads only.
//
// Each run opens its own profiler on its run context (sim/context.hpp) and
// the harness returns the run's Profile in its result.
//
// Overhead contract (mirrors tmx::check / tmx::fault): with no profiler
// open every hook is one predictable branch on the run context's prof slot.
// Open or not, the plane never calls sim::tick()/yield()/probe() —
// latency is measured by *reading* sim::now_cycles() around calls that tick
// on their own — so a prof-ON run keeps the exact schedule, cycle counts
// and commit/abort totals of a prof-OFF run; only host time changes.
//
// Layering: prof sits beside check and fault, above alloc/obs/sim/util.
// core/stm.cpp and the ProfilingAllocator wrapper (prof_alloc.hpp) call in;
// nothing below links back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "prof/hdr_histogram.hpp"
#include "sim/context.hpp"
#include "util/macros.hpp"

namespace tmx::obs {
class MetricsRegistry;
}
namespace tmx::alloc {
class Allocator;
}

namespace tmx::prof {

struct ProfConfig {
  // Virtual-cycle cadence of the time-series sampler; 0 disables sampling.
  std::uint64_t sample_cycles = 100'000;
  // Allocator observed by the sampler (live_bytes / os_reserved). May be
  // null: latency and site attribution still work, the time series reports
  // zero heap columns.
  const alloc::Allocator* allocator = nullptr;
  // Rows kept by the sampler before further snapshots are counted as
  // dropped rather than stored (bounds host memory on long runs).
  std::size_t max_samples = 1 << 16;
};

// The profiled operations, in export order.
enum class Op : int {
  kMalloc = 0,
  kFree = 1,
  kTxCommit = 2,
  kTxAbortToRetry = 3,
};
inline constexpr int kNumOps = 4;
const char* op_name(Op op);  // "malloc", "free", "tx_commit", "tx_abort_retry"

// Opens the profiler on `ctx` for one run.
void open(sim::RunContext& ctx, const ProfConfig& cfg);

// The one-branch guard every hook checks first.
inline bool enabled() { return sim::context().prof != nullptr; }

// ---- Site labels ----
// Pushes `label` (a string literal or otherwise outliving the scope) onto
// the calling thread's site stack; allocations made inside the scope are
// attributed to the folded path of the whole stack. One branch when the
// profiler is off.
class ScopedSite {
 public:
  explicit ScopedSite(const char* label);
  ~ScopedSite();
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  bool pushed_;
};

// Epochs partition the run on the time axis (e.g. one epoch per benchmark
// phase); per-site counters are kept per epoch. Starts at 0.
void advance_epoch();
std::uint32_t current_epoch();

// ---- Hooks ----
// Allocator events (called by ProfilingAllocator with the profiler known
// to be on). `latency` is in virtual cycles, measured around the inner
// allocator call. A null `p` (failed allocation) records latency only.
void on_alloc(void* p, std::size_t usable, std::uint64_t latency);
void on_free(void* p, std::uint64_t latency);

// STM events (called from core/stm.cpp behind TMX_UNLIKELY(enabled())).
void on_tx_begin(int tid);
void on_tx_commit(int tid);
void on_tx_abort(int tid);

// Takes a time-series snapshot immediately (used by harnesses for a final
// row while the observed allocator is still alive). sample_at stamps the
// row with an explicit virtual time — for the post-run row, where
// now_cycles() already reads 0, pass the run's makespan.
void sample_now();
void sample_at(std::uint64_t cycles);

// ---- Export ----
// One run's profile, detached from the run: the latency histograms and
// counters, and the three data families rendered with the run's label.
struct Profile {
  HdrHistogram latency[kNumOps];
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t cross_thread_frees = 0;
  std::uint64_t sites = 0;
  std::uint64_t samples = 0;
  std::uint64_t samples_dropped = 0;
  // Time-series rows, one per snapshot, `label` in the leading column so
  // multi-allocator files concatenate under timeseries_csv_header().
  std::string timeseries_csv;
  // Per-site per-epoch rows: one per (site, epoch) with activity plus a
  // closing "all"-epoch row per site carrying live/peak bytes, sorted by
  // folded path for byte-stable output (header: sites_csv_header()).
  std::string sites_csv;
  // Folded-stack lines ("a;b;c <total allocated bytes>\n", sorted), the
  // format flamegraph.pl and speedscope consume.
  std::string folded;

  const HdrHistogram& op(Op o) const { return latency[static_cast<int>(o)]; }
  bool operator==(const Profile&) const = default;
};

// The open profiler's data so far, rows labeled `label`.
Profile profile(const std::string& label);

// Publishes "prof.lat.<op>.{p50,p95,p99,p999,max,count,sum}" plus
// "prof.{mallocs,frees,commits,aborts,cross_thread_frees,sites,samples,
// samples_dropped}" under `prefix` into `reg`.
void publish_metrics(const Profile& p, obs::MetricsRegistry& reg,
                     const std::string& prefix = "prof.");

std::string timeseries_csv_header();
std::string sites_csv_header();

}  // namespace tmx::prof
