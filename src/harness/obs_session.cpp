#include "harness/obs_session.hpp"

#include <algorithm>
#include <cstdio>

#include "harness/run_context.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_json.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"

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
      top_k_(static_cast<int>(opts.get_long("attribution-topk"))),
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
  const bool want_tracing =
      attribution_ || !trace_path_.empty() || !record_path_.empty();
  if (want_tracing) {
    if (!obs::kTracingCompiledIn) {
      std::fprintf(stderr,
                   "warning: --trace/--attribution/--record-trace requested "
                   "but the binary was built with -DTMX_TRACING=OFF; no "
                   "events will be recorded\n");
    }
    obs::Tracer::instance().enable(
        static_cast<std::size_t>(opts.get_long("trace-capacity")));
    tracing_ = true;
  }
  sim::install_exit_flush([this] { write_artifacts(); });
}

ObsSession::~ObsSession() {
  write_artifacts();
  sim::install_exit_flush({});
}

void ObsSession::set_trace_meta(const std::string& allocator, unsigned shift,
                                unsigned ort_log2, std::uint64_t seed) {
  recorder_.meta.allocator = allocator;
  recorder_.meta.shift = shift;
  recorder_.meta.ort_log2 = ort_log2;
  recorder_.meta.seed = seed;
}

// Bookkeeping that must run before any tracer.clear(): clear() resets the
// per-thread drop counters, so drops are accumulated here per window, and
// the recorder drains each window in per-thread emission order.
void ObsSession::absorb_window() {
  obs::Tracer& tracer = obs::Tracer::instance();
  for (int t = 0; t < kMaxThreads; ++t) {
    drops_by_thread_[t] += tracer.dropped_by_thread(t);
  }
  if (recording()) recorder_.drain(tracer);
}

void ObsSession::collect() {
  if (!tracing_) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  std::vector<obs::Event> events = tracer.snapshot();
  collected_.insert(collected_.end(), events.begin(), events.end());
  absorb_window();
  tracer.clear();
}

void ObsSession::report_attribution_and_clear(const std::string& label) {
  if (!tracing_ || !attribution_) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::vector<obs::Event> events = tracer.snapshot();
  std::printf("\n[attribution] %s\n", label.c_str());
  if (tracer.dropped() > 0) {
    std::printf("  (ring overflow: %llu oldest events dropped; report "
                "covers the surviving window)\n",
                static_cast<unsigned long long>(tracer.dropped()));
  }
  obs::print_report(obs::attribute_aborts(events, static_cast<std::size_t>(top_k_)));
  collected_.insert(collected_.end(), events.begin(), events.end());
  absorb_window();
  tracer.clear();
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
  collect();

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

  if (attribution_ && !reported_per_case_ && tracing_) {
    std::printf("\n[attribution] whole run\n");
    obs::print_report(obs::attribute_aborts(collected_, static_cast<std::size_t>(top_k_)));
  }
  if (attribution_ && tracing_) {
    obs::publish_metrics(obs::attribute_aborts(collected_, static_cast<std::size_t>(top_k_)),
                         obs::MetricsRegistry::global());
  }

  if (!trace_path_.empty()) {
    // Events were collected per-case; keep global timestamp order.
    std::stable_sort(collected_.begin(), collected_.end(),
                     [](const obs::Event& x, const obs::Event& y) {
                       return x.ts < y.ts;
                     });
    if (obs::write_chrome_trace(trace_path_, collected_)) {
      std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                   collected_.size(), trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
      ok_ = false;
    }
  }

  if (tracing_) {
    // Ring-overflow accounting: a truncated window silently biases any
    // downstream analysis, so it is always published and printed.
    std::uint64_t total_drops = 0;
    auto& reg = obs::MetricsRegistry::global();
    for (int t = 0; t < kMaxThreads; ++t) {
      if (drops_by_thread_[t] == 0) continue;
      total_drops += drops_by_thread_[t];
      reg.set_counter("obs.trace.dropped.t" + std::to_string(t),
                      drops_by_thread_[t]);
    }
    reg.set_counter("obs.trace.dropped", total_drops);
    if (total_drops > 0) {
      std::fprintf(stderr,
                   "trace: ring overflow dropped %llu events; raise "
                   "--trace-capacity for complete captures\n",
                   static_cast<unsigned long long>(total_drops));
    }
  }

  if (recording()) {
    const replay::Trace t = recorder_.build();
    if (replay::write_trace(record_path_, t)) {
      std::fprintf(stderr, "trace: recorded %zu records to %s%s\n",
                   t.records.size(), record_path_.c_str(),
                   t.gappy() ? " (GAPPY: replays are approximate)" : "");
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   record_path_.c_str());
      ok_ = false;
    }
  }

  if (!metrics_path_.empty()) {
    if (obs::MetricsRegistry::global().write_json(metrics_path_)) {
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n",
                   metrics_path_.c_str());
      ok_ = false;
    }
  }

  if (tracing_) obs::Tracer::instance().disable();
}

}  // namespace tmx::harness
