// Minimal command-line option parsing shared by every bench and example.
//
// Conventions: `--name value` or `--name=value`; list values are
// comma-separated. Common experiment knobs get dedicated accessors so every
// binary exposes the same interface.
#pragma once

#include <string>
#include <vector>

#include "alloc/page_provider.hpp"
#include "core/stm.hpp"
#include "harness/run_spec.hpp"
#include "sim/engine.hpp"

namespace tmx::harness {

class Options {
 public:
  Options(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  long get_long(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::vector<std::string> get_list(const std::string& name,
                                    const std::string& fallback) const;
  std::vector<int> get_int_list(const std::string& name,
                                const std::string& fallback) const;

  // -- Shared experiment knobs --
  // --engine sim|threads (default sim: deterministic virtual-time engine)
  sim::EngineKind engine() const;
  // --reps N: repetitions per configuration
  int reps(int fallback) const;
  // --threads 1,2,4,8
  std::vector<int> threads(const std::string& fallback = "1,2,4,8") const;
  // --alloc glibc,hoard,tbb,tcmalloc
  std::vector<std::string> allocators(
      const std::string& fallback = "glibc,hoard,tbb,tcmalloc") const;
  // --seed S
  std::uint64_t seed() const;
  // --csv PATH
  std::string csv() const { return get("csv", ""); }
  // --scale X: workload scale factor (default 1)
  double scale() const;

  // -- Observability knobs (tmx::obs) --
  // --trace PATH: write a Chrome trace_event JSON of the run
  std::string trace() const { return get("trace", ""); }
  // --metrics-out PATH: write the unified metrics registry as JSON
  std::string metrics_out() const { return get("metrics-out", ""); }
  // --attribution: print the abort-attribution report (top-K stripes)
  bool attribution() const { return has("attribution"); }
  // --attribution-topk K: stripes listed in the attribution report
  int attribution_topk() const {
    return static_cast<int>(get_long("attribution-topk", 8));
  }
  // --trace-capacity N: per-thread event ring capacity (rounded up to pow2)
  std::size_t trace_capacity() const {
    return static_cast<std::size_t>(get_long("trace-capacity", 1 << 16));
  }

  // -- Trace capture / replay (tmx::replay) --
  // --record-trace PATH: capture the run as a tmx-trace-v1 replay trace
  std::string record_trace() const { return get("record-trace", ""); }
  // --replay-trace PATH: replay a recorded trace instead of running
  std::string replay_trace() const { return get("replay-trace", ""); }
  // --list-allocators: print the allocator registry (Table 1) and exit
  bool list_allocators() const { return has("list-allocators"); }

  // --cm suicide|backoff: contention manager for every transactional run
  // (default suicide, the paper's baseline). Unknown values exit 2.
  stm::ContentionManager cm() const;

  // -- Profiling (tmx::prof) --
  // --prof: turn the latency/heap profiling plane on for the run
  bool prof() const { return has("prof"); }
  // --prof-out PREFIX: write PREFIX.timeseries.csv, PREFIX.sites.csv and
  // PREFIX.folded when the session finishes (default: prefix "prof")
  std::string prof_out() const { return get("prof-out", "prof"); }

  // -- NUMA topology / placement (sim engine) --
  // --numa-nodes N, --numa-cores-per-node C (0 = threads/nodes): two-level
  // machine shape; nodes=1 (the default) is the original flat topology.
  sim::Topology topology() const;
  // --numa-policy first-touch|interleave|bind[:NODE]: page-provider homing.
  alloc::NumaOptions numa_options() const;

  // -- The run spec --
  // Every shared run setting, parsed once, the planes included: `fault`
  // is set when any --fault-* flag is given, `check` by --check
  // race,lifetime (bare --check or --check all = both prongs) and
  // --check-max-reports, `guard` by --guard or any --guard-* flag, and
  // `phase` from the --phase-* flags. Unknown --engine, --cm, --design,
  // --check, --phase-compact and --fault-oom-region values exit 2;
  // --stm-retry-cap defaults to 64 when fault injection is on. Harnesses
  // that sweep an --alloc list overwrite `allocator` per run.
  RunSpec run_spec() const;

  void print_help(const char* what) const;

 private:
  bool fault_enabled() const;
  fault::FaultPlan fault_plan() const;
  check::CheckConfig check_config(unsigned shift, unsigned ort_log2) const;
  bool guard_enabled() const;
  guard::GuardConfig guard_config() const;
  phase::PhaseConfig phase_config() const;

  std::vector<std::pair<std::string, std::string>> kv_;
};

// Shared --list-allocators handling (stamp_runner, trace_replay,
// allocator_duel, server_mix all expose the flag): when present, prints the
// registry as the Table 1-style listing and returns true — the caller
// should then exit 0.
bool handle_list_allocators(const Options& opt);

// The one compatibility check for the check and guard planes (stamp_runner
// and server_mix both call it before running). Both planes keep host-side
// block tables without synchronization, valid only under the sim engine,
// and the transactional object cache bypasses them; the checker also
// cannot see the hardware path, and the guard's address-keyed tables break
// under phase compaction. Prints the refusal and returns false when a
// plane `spec` turns on cannot run with the rest of it; the caller should
// then exit 2.
bool planes_compatible(const RunSpec& spec);

}  // namespace tmx::harness
