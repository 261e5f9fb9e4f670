// The unified metrics registry: named counters and gauges with JSON export.
//
// Before this layer every subsystem reported its own ad-hoc struct
// (stm::TxStats, alloc::AllocationProfile, sim::CacheStats); the registry
// gives them one namespace ("stm.aborts", "cache.l1_misses",
// "alloc.tx.mallocs", ...) and one stable serialized schema
// ("tmx-metrics-v1") that bench trajectories can depend on. Each subsystem
// keeps its cheap internal struct on the hot path and *publishes* into a
// registry at reporting time via its publish_metrics() overload
// (core/stm.hpp, sim/cache_model.hpp, alloc/instrument.hpp).
//
// The registry is a reporting-time structure: it is not synchronized and
// must be used from one thread at a time (the harness publishes after
// run_parallel has joined).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace tmx::obs {

class MetricsRegistry {
 public:
  // The process-wide registry used by the harness plumbing. Independent
  // instances can still be created for tests or scoped collection.
  static MetricsRegistry& global();
  MetricsRegistry() = default;

  void set_counter(const std::string& name, std::uint64_t value);
  void add_counter(const std::string& name, std::uint64_t delta);
  void set_gauge(const std::string& name, double value);

  std::uint64_t counter(const std::string& name) const;  // 0 when absent
  double gauge(const std::string& name) const;           // 0.0 when absent

  bool empty() const { return counters_.empty() && gauges_.empty(); }
  void clear();

  // Serializes as the stable "tmx-metrics-v1" schema:
  //   {"schema":"tmx-metrics-v1","counters":{...},"gauges":{...}}
  // Keys are emitted in sorted order so output is diff-friendly.
  std::string to_json() const;
  // Writes to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

  // Rebuilds a registry from to_json() output (the round-trip used by
  // tests and by trajectory tooling). Returns false on schema mismatch.
  static bool from_json(const std::string& text, MetricsRegistry* out);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
};

}  // namespace tmx::obs
