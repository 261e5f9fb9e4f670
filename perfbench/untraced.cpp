// The untraced link: no layer attribution, so end-to-end timings carry no
// tracing overhead.
#include "hooks.hpp"

namespace perfbench {

bool tracer_linked() { return false; }
void tracer_run_begin(const tmx::sim::RunConfig&) {}
void tracer_body_begin() {}
void tracer_body_end() {}
void tracer_run_end() {}
void tracer_report(std::string*, double) {}

}  // namespace perfbench
