#include "harness/obs_session.hpp"

#include <algorithm>
#include <cstdio>

#include "harness/run_context.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "replay/trace_json.hpp"
#include "sim/engine.hpp"

namespace tmx::harness {

namespace {

using K = Flag::Kind;

constexpr Flag kReportFlagList[] = {
    {"metrics-out", K::kText, "PATH", nullptr, "write tmx-metrics-v1 JSON"},
    {"trace", K::kText, "PATH", nullptr, "write a Chrome trace (Perfetto)"},
    {"attribution", K::kBare, nullptr, nullptr, "print abort attribution"},
    {"attribution-topk", K::kInt, "K", "8", "stripes in the attribution"},
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
  set_report(Report::kAttribution, attribution_);
  set_report(Report::kCapture, !record_path_.empty());
  set_report(Report::kTrace, !trace_path_.empty());
  sim::install_exit_flush([this] { write_artifacts(); });
}

ObsSession::~ObsSession() {
  write_artifacts();
  set_report(Report::kAttribution, false);
  set_report(Report::kCapture, false);
  set_report(Report::kTrace, false);
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

  if (!trace_path_.empty() || !record_path_.empty()) write_capture();

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

void ObsSession::write_capture() {
  const replay::Trace t = take_capture();
  if (!trace_path_.empty()) {
    if (write_text(trace_path_, replay::chrome_trace_json(t))) {
      std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                   t.records.size(), trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
      ok_ = false;
    }
  }
  if (record_path_.empty()) return;
  if (replay::write_trace(record_path_, t)) {
    std::fprintf(stderr, "trace: recorded %zu records to %s\n",
                 t.records.size(), record_path_.c_str());
  } else {
    std::fprintf(stderr, "trace: failed to write %s\n", record_path_.c_str());
    ok_ = false;
  }
}

}  // namespace tmx::harness
