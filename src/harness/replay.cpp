#include "harness/replay.hpp"

#include "util/macros.hpp"

namespace tmx::harness {

ReplayOutcome run_replay(const ReplayRun& run) {
  TMX_ASSERT(run.trace != nullptr && run.engine == sim::EngineKind::Sim);
  const replay::Trace& trace = *run.trace;
  ReplayOutcome out;
  out.result.error = replay::check_trace(trace);
  if (out.result.error.empty()) {
    const int threads = static_cast<int>(trace.meta.threads);
    RunContext context(run, threads);
    out.result = replay::replay_trace(trace,
                                      context.allocator(/*instrument=*/true),
                                      run.run_config(threads), run.shift,
                                      run.ort_log2);
    out.planes = context.finish();
  }
  out.result.allocator = run.allocator;
  return out;
}

}  // namespace tmx::harness
