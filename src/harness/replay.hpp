// Trace replay as a workload: one recorded request stream replayed through
// the run's allocator (replay/replayer.hpp), so placement differences are
// the allocator's alone.
#pragma once

#include "harness/run_context.hpp"
#include "harness/run_spec.hpp"
#include "replay/replayer.hpp"
#include "replay/trace_format.hpp"

namespace tmx::harness {

// The run's shared settings come from RunSpec: the allocator, the planes,
// the cache model and the seed, with `shift` and `ort_log2` the ORT
// geometry of the stripe statistics (0 = the trace header's). A replay
// issues no transactions, only their markers as allocator hints, so the
// STM settings go unused. The fields here describe the workload.
struct ReplayRun : RunSpec {
  const replay::Trace* trace = nullptr;  // outlives the call
};

struct ReplayOutcome {
  replay::ReplayResult result;
  PlaneOutputs planes;
};

// Replays `run.trace` in its own run context, with the trace's thread
// count and the sim engine. A trace replay::check_trace refuses opens no
// context: result.ok is false and result.error says why.
ReplayOutcome run_replay(const ReplayRun& run);

}  // namespace tmx::harness
