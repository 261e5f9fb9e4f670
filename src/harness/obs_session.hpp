// RAII wiring between the harness command line and tmx::obs / tmx::replay.
//
// ObsSession enables the tracer when any of --trace / --attribution /
// --record-trace is given, collects events across the bench's cases, and
// on finish() (or destruction) writes the Chrome trace (--trace), the
// metrics registry JSON (--metrics-out), the abort-attribution report
// (--attribution) and the replayable tmx-trace-v1 capture
// (--record-trace). Ring-overflow drop counts are published as
// obs.trace.dropped metrics and surfaced in the finish() summary either
// way.
//
// When the binary hands it a run's profile (set_profile, the prof plane's
// output), finish() additionally publishes the prof.* metrics into the
// global registry before the --metrics-out write and emits the profiler
// artifacts (<prof-out>.timeseries.csv / .sites.csv / .folded).
//
// Benches with several independent cases call report_attribution_and_clear()
// between them to get a per-case report and a fresh trace window.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "prof/prof.hpp"
#include "replay/recorder.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

class Options;

class ObsSession {
 public:
  explicit ObsSession(const Options& opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return tracing_; }
  bool attribution() const { return attribution_; }
  bool recording() const { return !record_path_.empty(); }

  // Stamps the capture configuration into the recorded trace header so a
  // replay knows which allocator/ORT geometry produced it. Call before
  // finish(); the last call wins (single-configuration captures are the
  // ones with an exact-replay guarantee — see replay/recorder.hpp).
  void set_trace_meta(const std::string& allocator, unsigned shift,
                      unsigned ort_log2, std::uint64_t seed);

  // The run's profile, published and written out by finish().
  void set_profile(const prof::Profile& p) { profile_ = p; }

  // Prints the abort-attribution report for the events recorded since the
  // last call (or session start), labeled `label`, then clears the tracer
  // so the next case starts from an empty window. The events are kept for
  // the final Chrome trace. No-op unless --attribution and tracing are on.
  void report_attribution_and_clear(const std::string& label);

  // Writes --trace / --metrics-out outputs and, if no per-case report was
  // requested, the whole-run attribution. Safe to call once; the destructor
  // calls it for benches that early-exit.
  void finish();

  // False once any requested artifact (--trace / --record-trace /
  // --metrics-out) failed to persist. Binaries call finish() explicitly and
  // propagate !ok() as a nonzero exit so a run whose evidence is missing
  // never reports success.
  bool ok() const { return ok_; }

 private:
  void collect();
  void absorb_window();

  bool tracing_ = false;
  bool attribution_ = false;
  bool finished_ = false;
  bool ok_ = true;
  bool reported_per_case_ = false;
  int top_k_ = 8;
  std::string trace_path_;
  std::string metrics_path_;
  std::string record_path_;
  std::string prof_out_;
  std::optional<prof::Profile> profile_;
  std::vector<obs::Event> collected_;
  std::uint64_t drops_by_thread_[kMaxThreads] = {};
  replay::Recorder recorder_;
};

}  // namespace tmx::harness
