// Seams between the benchmark driver and its link-time hooks.
//
// Both links of the driver interpose on sim::run_parallel (capture.cpp) to
// split host time into set-up and the simulated phase. The traced link also
// interposes on every layer's public entry point (traced.cpp) and attributes
// host time to layers; the untraced link carries no-op stubs instead
// (untraced.cpp). Nothing here touches virtual time.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.hpp"

namespace perfbench {

// Steady-clock seconds since an arbitrary origin.
double now_s();

// Totals over every sim::run_parallel call of this process.
struct RunCapture {
  std::uint64_t calls = 0;
  double first_entry_s = 0.0;  // now_s() at the first entry
  double inside_s = 0.0;       // host seconds spent inside run_parallel
  std::uint64_t makespan_cycles = 0;
  tmx::sim::SchedStats sched{};
  tmx::sim::CacheStats cache{};
};
const RunCapture& run_capture();

// Layer attribution, implemented by traced.cpp (traced link) or as no-ops by
// untraced.cpp.
bool tracer_linked();
void tracer_run_begin(const tmx::sim::RunConfig& cfg);
void tracer_body_begin();
void tracer_body_end();
void tracer_run_end();
// Appends `,"layers":{...}` to a result line; `wall_s` is the host time the
// attribution must account for (RunCapture::inside_s).
void tracer_report(std::string* out, double wall_s);

}  // namespace perfbench
