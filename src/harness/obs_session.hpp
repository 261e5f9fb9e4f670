// The one report path between a binary and its artifacts.
//
// A binary opens one ObsSession for the process, hands it each run's plane
// outputs with report(), and returns finish(rc) from main:
//
//  * report(prefix, planes) hands the run's planes to their rows of
//    kPlanes (run_context.hpp): each publishes its output under
//    "<prefix><plane>." (publish_metrics below), prints the findings that
//    fail the process (check reports to stdout, guard findings to stderr)
//    and appends its rows to its files (prof's to the --prof-out files).
//  * finish(rc) writes every artifact: the planes' files
//    (<prof-out>.timeseries.csv / .sites.csv / .folded), the
//    abort-attribution report and its attribution.* metrics
//    (--attribution), the Chrome trace (--trace),
//    the replayable tmx-trace-v1 capture (--record-trace) and the
//    tmx-metrics-v1 document (--metrics-out). It returns the exit code:
//    3 when an artifact failed to write, else the highest exit code of a
//    plane that reported a finding (5 heap corruption, 4 a hard check
//    report), else the workload's `rc`.
//  * The constructor installs the process's exit-flush hook
//    (sim::install_exit_flush), so a watchdog or guard hard-cap trip still
//    writes every artifact before it exits.
//
// Every flag the session reads is in kReportFlags. The tracer is on when
// --trace or --record-trace is given, and collects events across the
// runs; its ring-overflow drop counts are published as obs.trace.dropped
// metrics and printed. --attribution needs no tracer: it reports the abort
// tallies the STM keeps in each simulated run's context, which closing a
// RunContext folds into the process's (take_abort_tally). Binaries with
// several independent cases call report_attribution_and_clear() between
// them to get a per-case report.
#pragma once

#include <string>
#include <vector>

#include "harness/options.hpp"
#include "harness/run_context.hpp"
#include "obs/attribution.hpp"
#include "replay/recorder.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::harness {

// Every flag an ObsSession reads.
extern const FlagTable kReportFlags;

// Publishes each plane's output in `planes` under "<prefix><plane>.":
// fault., check., guard. and prof.
void publish_metrics(const PlaneOutputs& planes, obs::MetricsRegistry& reg,
                     const std::string& prefix);

class ObsSession {
 public:
  explicit ObsSession(const Options& opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool recording() const { return !record_path_.empty(); }

  // Stamps the capture configuration into the recorded trace header so a
  // replay knows which allocator/ORT geometry produced it. Call before
  // finish(); the last call wins (single-configuration captures are the
  // ones with an exact-replay guarantee — see replay/recorder.hpp).
  void set_trace_meta(const std::string& allocator, unsigned shift,
                      unsigned ort_log2, std::uint64_t seed);

  // Reports one run's planes into the global registry (see above).
  void report(const std::string& prefix, const PlaneOutputs& planes);

  // Prints the abort-attribution report, labeled `label`, for the runs
  // closed since the last call (or session start), and starts the next
  // case from empty tallies. No-op unless --attribution is on.
  void report_attribution_and_clear(const std::string& label);

  // Writes every artifact once and returns the exit code (see above). The
  // destructor writes them too, for binaries that exit early.
  int finish(int rc);

 private:
  void write_artifacts();
  void write_trace_artifacts();  // --trace, the drop counts, --record-trace

  bool tracing_ = false;
  bool attribution_ = false;
  bool finished_ = false;
  bool ok_ = true;  // false once a requested artifact failed to persist
  bool reported_per_case_ = false;
  std::size_t top_k_ = 8;
  int plane_rc_ = 0;  // the highest exit code of a plane that reported
  std::string trace_path_;
  std::string metrics_path_;
  std::string record_path_;
  // Per kPlanes row: its files' prefix, and their text so far (empty
  // until a report() carries the plane's rows).
  std::vector<std::string> outs_;
  std::vector<std::vector<std::string>> files_;
  obs::AbortTally aborts_;  // every case's tallies, for the metrics
  replay::Recorder recorder_;
};

}  // namespace tmx::harness
