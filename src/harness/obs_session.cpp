#include "harness/obs_session.hpp"

#include <algorithm>
#include <cstdio>

#include "harness/run_context.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_json.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

namespace {

using K = Flag::Kind;

constexpr Flag kReportFlagList[] = {
    {"metrics-out", K::kText, "PATH", nullptr, "write tmx-metrics-v1 JSON"},
    {"trace", K::kText, "PATH", nullptr, "write a Chrome trace (Perfetto)"},
    {"attribution", K::kBare, nullptr, nullptr, "print abort attribution"},
    {"attribution-topk", K::kInt, "K", "8", "stripes in the attribution"},
    {"trace-capacity", K::kInt, "N", "65536", "per-thread event ring size"},
    {"record-trace", K::kText, "PATH", nullptr, "capture a tmx-trace-v1 trace"},
    {"prof-out", K::kText, "PREFIX", "prof",
     "with --prof: PREFIX.{timeseries.csv,sites.csv,folded}"},
};

}  // namespace

const FlagTable kReportFlags{"reports and artifacts:", kReportFlagList};

ObsSession::ObsSession(const Options& opts)
    : attribution_(opts.has("attribution")),
      top_k_(static_cast<std::size_t>(opts.get_long("attribution-topk"))),
      trace_path_(opts.get("trace")),
      metrics_path_(opts.get("metrics-out")),
      record_path_(opts.get("record-trace")) {
  // A plane that writes files takes their prefix from --<name>-out.
  for (const Plane& p : kPlanes) {
    outs_.push_back(p.file_suffixes.empty()
                        ? ""
                        : opts.get(std::string(p.name) + "-out"));
  }
  files_.resize(outs_.size());
  if (!trace_path_.empty()) {
    if (!obs::kTracingCompiledIn) {
      std::fprintf(stderr,
                   "warning: --trace requested but the binary was built with "
                   "-DTMX_TRACING=OFF; no events will be recorded\n");
    }
    obs::Tracer::instance().enable(
        static_cast<std::size_t>(opts.get_long("trace-capacity")));
  }
  set_report(Report::kAttribution, attribution_);
  set_report(Report::kCapture, !record_path_.empty());
  sim::install_exit_flush([this] { write_artifacts(); });
}

ObsSession::~ObsSession() {
  write_artifacts();
  set_report(Report::kAttribution, false);
  set_report(Report::kCapture, false);
  sim::install_exit_flush({});
}

void ObsSession::report_attribution_and_clear(const std::string& label) {
  if (!attribution_) return;
  const obs::AbortTally tally = take_abort_tally();
  std::printf("\n[attribution] %s\n", label.c_str());
  obs::print_report(obs::make_report(tally, top_k_));
  aborts_.add(tally);
  reported_per_case_ = true;
}

void publish_metrics(const PlaneOutputs& planes, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  for (const Plane& p : kPlanes) {
    p.publish(planes, reg, prefix + p.name + ".");
  }
}

void ObsSession::report(const std::string& prefix, const PlaneOutputs& planes) {
  publish_metrics(planes, obs::MetricsRegistry::global(), prefix);
  for (std::size_t i = 0; i < kPlanes.size(); ++i) {
    plane_rc_ = std::max(plane_rc_, kPlanes[i].report(planes, files_[i]));
  }
}

namespace {

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

}  // namespace

int ObsSession::finish(int rc) {
  write_artifacts();
  if (!ok_) return 3;  // a run whose evidence is missing never succeeds
  return plane_rc_ != 0 ? plane_rc_ : rc;
}

void ObsSession::write_artifacts() {
  if (finished_) return;
  finished_ = true;

  for (std::size_t i = 0; i < kPlanes.size(); ++i) {
    const Plane& p = kPlanes[i];
    if (files_[i].empty()) continue;
    const std::string& out = outs_[i];
    bool wrote = true;
    std::string names;
    for (std::size_t f = 0; f < p.file_suffixes.size(); ++f) {
      const std::string suffix = p.file_suffixes[f];
      wrote = wrote && write_text(out + "." + suffix, files_[i][f]);
      names += (f == 0 ? "" : ",") + suffix;
    }
    if (wrote) {
      std::fprintf(stderr, "%s: wrote %s.{%s}\n", p.name, out.c_str(),
                   names.c_str());
    } else {
      std::fprintf(stderr, "%s: failed to write %s.*\n", p.name, out.c_str());
      ok_ = false;
    }
  }

  if (attribution_) {
    aborts_.add(take_abort_tally());
    const obs::AttributionReport report = obs::make_report(aborts_, top_k_);
    if (!reported_per_case_) {
      std::printf("\n[attribution] whole run\n");
      obs::print_report(report);
    }
    obs::publish_metrics(report, obs::MetricsRegistry::global());
  }

  if (!trace_path_.empty()) write_trace();
  if (!record_path_.empty()) write_capture();

  if (!metrics_path_.empty()) {
    if (obs::MetricsRegistry::global().write_json(metrics_path_)) {
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n",
                   metrics_path_.c_str());
      ok_ = false;
    }
  }
}

void ObsSession::write_trace() {
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::vector<obs::Event> events = tracer.snapshot();
  if (obs::write_chrome_trace(trace_path_, events)) {
    std::fprintf(stderr, "trace: wrote %zu events to %s\n", events.size(),
                 trace_path_.c_str());
  } else {
    std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
    ok_ = false;
  }

  // Ring-overflow accounting: a truncated window silently biases any
  // downstream analysis, so it is always published and printed.
  std::uint64_t total_drops = 0;
  auto& reg = obs::MetricsRegistry::global();
  for (int t = 0; t < kMaxThreads; ++t) {
    const std::uint64_t drops = tracer.dropped_by_thread(t);
    if (drops == 0) continue;
    total_drops += drops;
    reg.set_counter("obs.trace.dropped.t" + std::to_string(t), drops);
  }
  reg.set_counter("obs.trace.dropped", total_drops);
  if (total_drops > 0) {
    std::fprintf(stderr,
                 "trace: ring overflow dropped %llu events; raise "
                 "--trace-capacity for complete traces\n",
                 static_cast<unsigned long long>(total_drops));
  }
  tracer.disable();
}

void ObsSession::write_capture() {
  const replay::Trace t = take_capture();
  if (replay::write_trace(record_path_, t)) {
    std::fprintf(stderr, "trace: recorded %zu records to %s\n",
                 t.records.size(), record_path_.c_str());
  } else {
    std::fprintf(stderr, "trace: failed to write %s\n", record_path_.c_str());
    ok_ = false;
  }
}

}  // namespace tmx::harness
