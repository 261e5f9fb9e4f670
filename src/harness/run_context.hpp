// The run context: the one place a RunSpec becomes a run — its state and
// its allocator stack.
//
// A RunContext owns, for the run's lifetime, everything the layers below
// the harness reach through sim::context() (sim/context.hpp): the NUMA
// registry, shaped by the spec's topology for `threads` logical threads,
// and the placement policy; the phase allocator's config; and each plane
// the spec turns on, with fresh state. Constructing it opens it on the
// calling host thread; destroying it closes it and restores the context
// that was current before. Runs on different host threads open their own
// contexts and share no plane, NUMA or marker state, so nothing one run
// leaves behind reaches the next.
//
// Each plane is one row of kPlanes (below), which says everything the
// harness does with it: which flags turn it on, which run settings it
// cannot run with, and how it opens, wraps the allocator, hands back its
// output, publishes its metrics and reports its findings.
// Options::run_spec(), RunContext, publish_metrics and ObsSession loop
// over the rows, so each plane is declared once.
//
// The constructor refuses a spec that cannot run: one that turns on a
// plane with a setting its row rules out, or binds memory to a NUMA node
// the topology lacks. It prints "error: <why>" and exits 2 before anything
// runs.
//
// allocator() builds the run's allocator stack: each plane adds its layer
// in its row's order, innermost first — the one statement of the contract
// (test_harness pins it):
//
//   model <- Checked <- Guarded <- Faulty <- Instrumenting <- Profiling
//
//  * Checked sits directly on the model: it owns the authoritative
//    live-block and tombstone tables, so it must see exactly the blocks the
//    model hands out and returns, and a double or invalid free it swallows
//    never reaches the model.
//  * Guarded sits directly above the checker: a quarantined free reaches
//    the checker's lifetime tables only when the quarantine releases it, so
//    a zombie read of parked memory is still "live" to the checker.
//  * Faulty sits above both: an injected OOM allocates nothing below it,
//    and a delayed free passes through the guard and the checker only when
//    it is finally forwarded.
//  * Instrumenting, which the caller asks for (kInstrumentingAt), sits
//    above the fault wrapper, so the Table 5 profile and a recorded trace
//    see the post-fault results: an injected OOM is a malloc event with
//    address 0, and record -> replay reproduces the injected schedule.
//  * Profiling sits outermost, so a malloc's recorded latency is what the
//    application experienced through every other layer.
//
// A plane's layer is there exactly when the plane is open. With no plane
// on the result is the bare model, so the common path pays no forwarding
// call.
//
// finish() tears the stack down — a GuardedAllocator's final audit and a
// FaultyAllocator's parked frees run then — and returns what the planes
// found, which the harnesses hand back in their results. Closing the
// context adds its simulated runs' sim.sched.* and sim.numa.* totals to
// the process metrics registry, their abort tallies to the process's
// (take_abort_tally) and, while the process captures, its capture log to
// the process's capture (take_capture).
//
// Three reports read every run of the process, in virtual time: the abort
// attribution (--attribution), the capture (--record-trace) and its Chrome
// export (--trace). ObsSession turns them on (set_report) before any run
// opens; while one is on, every RunContext refuses --engine threads with
// the report's kReportNeeds row, as it refuses a plane's broken
// constraint.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "check/check.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "harness/run_spec.hpp"
#include "prof/prof.hpp"
#include "replay/trace_format.hpp"
#include "sim/context.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::harness {

class Options;

// What a run's planes leave behind; each is set when the spec turned its
// plane on.
struct PlaneOutputs {
  std::optional<fault::FaultStats> fault;
  std::optional<check::Summary> check;
  std::optional<guard::Summary> guard;
  std::optional<prof::Profile> prof;  // rows labeled with the allocator

  bool operator==(const PlaneOutputs&) const = default;
};

// A run setting a plane cannot run without.
enum class Needs { kSimEngine, kNoHybrid, kNoTxcache, kNoCompaction };
bool meets(const RunSpec& spec, Needs needs);

struct Constraint {
  Needs needs;
  const char* refusal;  // a run that breaks it prints "error: <refusal>"
};

struct Plane {
  const char* name;  // also its metric prefix, "<prefix><name>."
  // Sets the plane's RunSpec fields; its flags decide whether it is on.
  void (*parse)(const Options& opts, RunSpec& spec);
  bool (*on)(const RunSpec& spec);
  std::span<const Constraint> constraints;  // checked when on
  // Opens its state on the run's context; prof opens in wrap instead, on
  // the layer it observes.
  void (*open)(sim::RunContext& ctx, const RunSpec& spec);
  // Adds its layer over `inner` when the plane is open.
  std::unique_ptr<alloc::Allocator> (*wrap)(
      std::unique_ptr<alloc::Allocator> inner, sim::RunContext& ctx,
      const RunSpec& spec);
  // Sets its member of `out` when the plane is open.
  void (*finish)(const sim::RunContext& ctx, const RunSpec& spec,
                 PlaneOutputs& out);
  // Publishes its member of `out`, when set, under `prefix`.
  void (*publish)(const PlaneOutputs& out, obs::MetricsRegistry& reg,
                  const std::string& prefix);
  // Prints the findings in `out` that fail the process and returns the
  // exit code they call for, 0 when none; of several planes' codes the
  // highest wins (guard's 5 over check's 4). Appends the run's rows to
  // `files`, one string per suffix.
  int (*report)(const PlaneOutputs& out, std::vector<std::string>& files);
  // ObsSession writes each of `files` to "<--NAME-out>.<suffix>".
  std::span<const char* const> file_suffixes;
};

// In wrap order; the caller's InstrumentingAllocator goes below the row at
// kInstrumentingAt.
extern const std::span<const Plane> kPlanes;
inline constexpr std::size_t kInstrumentingAt = 3;  // prof

// The abort tallies (obs/attribution.hpp) of every context closed since
// the last call, folded into one; the process's table is left empty.
obs::AbortTally take_abort_tally();

// The process-wide reports (above), indexing kReportNeeds.
enum class Report { kAttribution, kCapture, kTrace };
extern const Constraint kReportNeeds[3];
void set_report(Report report, bool on);

// The capture of every context closed since the last call, in one trace;
// the process's is left empty. Each closing context stable-sorts each
// simulated run's records by (cycle, tid), the scheduler's own order, and
// rebases them onto one cycle axis: a sequential record sits at the
// current base, a run's record at the base plus its cycle, and the base
// then moves past the run's makespan plus 1. The header's allocator,
// shift, ort_log2 and seed are the last closed context's RunSpec's, and
// its thread count covers every record's tid.
replay::Trace take_capture();

class RunContext {
 public:
  explicit RunContext(const RunSpec& spec, int threads = 1);
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // Builds the allocator stack (once, before the run allocates anything)
  // and opens the prof plane on its outermost layer. `instrument` adds the
  // InstrumentingAllocator for the caller's own Table 5 profile; it is
  // there anyway while the process captures, as the layer whose records
  // the capture carries.
  alloc::Allocator& allocator(bool instrument);

  // Destroys the allocator stack — whatever uses it must be gone by now —
  // and returns the planes' outputs.
  PlaneOutputs finish();

 private:
  const RunSpec spec_;
  sim::RunContext ctx_;
  sim::ContextScope open_{ctx_};
  std::unique_ptr<alloc::Allocator> allocator_;
};

}  // namespace tmx::harness
