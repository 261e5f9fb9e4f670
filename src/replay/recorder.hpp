// Trace capture: turns the obs::Tracer's per-thread ring buffers into a
// tmx-trace-v1 file.
//
// The tracer's buffers hold events in two timestamp domains — virtual
// cycles inside sim::run_parallel, steady-clock nanoseconds outside — so a
// global sort by timestamp would interleave a prologue malloc (billions of
// "nanosecond" ticks) into the middle of a simulated run. The recorder
// instead walks each thread's buffer in emission order and uses the
// kRunBegin/kRunEnd markers the sim engine plants in thread 0's stream
// (kRunBegin at ts == 0, kRunEnd at ts == makespan) to segment every
// stream into alternating sequential and parallel phases:
//
//   * events outside any run replay inline on the main thread (phase=seq,
//     where sim hooks are no-ops — matching how they were captured);
//   * events of run k from all threads merge by (cycle, tid) — the same
//     (virtual time, fiber id) discipline the scheduler used — and are
//     rebased to a single monotone cycle axis: cycle = base_k + ts, with
//     base advancing past each run's makespan.
//
// Worker threads (> 0) see no markers; their streams are split into
// per-run segments where the cycle sequence resets (a fiber's clock starts
// at 0 every run) or exceeds the run's recorded makespan.
//
// Ring truncation is explicit: every thread that dropped events
// contributes one leading kGap record carrying its drop count, and
// meta.dropped totals them, so replay tools can warn or refuse instead of
// silently replaying a hole (see trace_format.hpp).
//
// v1 contract: a capture that drains exactly one simulated run (the
// fig05 / setbench pattern — ObsSession::collect() after run_parallel)
// reproduces the run bit-for-bit on replay. Multi-run drains are captured
// faithfully per run but share one rebased axis, so cross-run gaps are
// compressed to a single cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event.hpp"
#include "obs/tracer.hpp"
#include "replay/trace_format.hpp"

namespace tmx::replay {

class Recorder {
 public:
  // Capture-time configuration identity stamped into the trace header.
  // threads/dropped are overwritten by build() from the drained streams.
  TraceMeta meta;

  // Appends every thread's surviving ring events (in emission order) and
  // accumulates per-thread drop counts. Does NOT clear the tracer — the
  // caller owns that, so a harness can both export a Chrome trace and
  // record from one snapshot. Call only at quiescent points.
  void drain(const obs::Tracer& tracer);

  // Segments, merges and rebases the drained streams into a cycle-sorted
  // trace as described above.
  Trace build() const;

  std::uint64_t dropped() const;

 private:
  std::vector<std::vector<obs::Event>> streams_;  // index = tid
  std::vector<std::uint64_t> drops_;              // index = tid
};

}  // namespace tmx::replay
