// The run_parallel interposer both links carry: the entry time of the first
// call ends set-up, and the host time inside the calls is the simulated
// phase that commits_per_s divides by. The linker routes every call from the
// repository's libraries here (-Wl,--wrap); state is static so the hook
// never touches the host heap.
#include <chrono>
#include <functional>

#include "hooks.hpp"

namespace tmx::sim {
RunResult real_run_parallel(const RunConfig& cfg,
                            const std::function<void(int)>& body)
    __asm__("__real__ZN3tmx3sim12run_parallelERKNS0_9RunConfigERKSt8functionIFviEE");
RunResult wrap_run_parallel(const RunConfig& cfg,
                            const std::function<void(int)>& body)
    __asm__("__wrap__ZN3tmx3sim12run_parallelERKNS0_9RunConfigERKSt8functionIFviEE");
}  // namespace tmx::sim

namespace perfbench {
namespace {
RunCapture g_capture;
}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const RunCapture& run_capture() { return g_capture; }

}  // namespace perfbench

tmx::sim::RunResult tmx::sim::wrap_run_parallel(
    const RunConfig& cfg, const std::function<void(int)>& body) {
  using perfbench::g_capture;
  const double t0 = perfbench::now_s();
  if (g_capture.calls++ == 0) g_capture.first_entry_s = t0;
  RunResult r;
  if (perfbench::tracer_linked()) {
    perfbench::tracer_run_begin(cfg);
    // One captured reference fits std::function's inline buffer: no heap.
    r = real_run_parallel(cfg, [&body](int tid) {
      perfbench::tracer_body_begin();
      body(tid);
      perfbench::tracer_body_end();
    });
    perfbench::tracer_run_end();
  } else {
    r = real_run_parallel(cfg, body);
  }
  g_capture.inside_s += perfbench::now_s() - t0;
  g_capture.makespan_cycles += r.cycles;
  g_capture.sched.add(r.sched);
  g_capture.cache.add(r.cache);
  return r;
}
