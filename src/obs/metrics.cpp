#include "obs/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"

namespace tmx::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry r;
  return r;
}

void MetricsRegistry::set_counter(const std::string& name,
                                  std::uint64_t value) {
  counters_[name] = value;
}

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
}

namespace {

// %.17g survives a double round-trip; JSON has no inf/nan, so clamp them to
// null-adjacent sentinels (they should never be published — summarize()
// drops non-finite samples upstream).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"schema\":\"tmx-metrics-v1\",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    if (!first) out += ',';
    first = false;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += '"' + json::escape(k) + "\":" + buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json::escape(k) + "\":" + num(v);
  }
  out += "}}";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = to_json();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

bool MetricsRegistry::from_json(const std::string& text,
                                MetricsRegistry* out) {
  bool ok = false;
  const json::Value root = json::parse(text, &ok);
  if (!ok || !root.is_object()) return false;
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str != "tmx-metrics-v1") {
    return false;
  }
  out->clear();
  if (const json::Value* cs = root.find("counters"); cs != nullptr) {
    if (!cs->is_object()) return false;
    for (const auto& [k, v] : cs->object) {
      if (!v.is_number()) return false;
      out->counters_[k] = static_cast<std::uint64_t>(v.number);
    }
  }
  if (const json::Value* gs = root.find("gauges"); gs != nullptr) {
    if (!gs->is_object()) return false;
    for (const auto& [k, v] : gs->object) {
      if (!v.is_number()) return false;
      out->gauges_[k] = v.number;
    }
  }
  return true;
}

}  // namespace tmx::obs
