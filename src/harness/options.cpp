#include "harness/options.hpp"

#include <cstdio>
#include <cstdlib>

#include "alloc/allocator.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_.emplace_back(arg, argv[++i]);
    } else {
      kv_.emplace_back(arg, "1");  // bare flag
    }
  }
}

bool Options::has(const std::string& name) const {
  for (const auto& [k, v] : kv_) {
    if (k == name) return true;
  }
  return false;
}

std::string Options::get(const std::string& name,
                         const std::string& fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k == name) return v;
  }
  return fallback;
}

long Options::get_long(const std::string& name, long fallback) const {
  const std::string v = get(name, "");
  return v.empty() ? fallback : std::strtol(v.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& name, double fallback) const {
  const std::string v = get(name, "");
  return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
}

std::vector<std::string> Options::get_list(const std::string& name,
                                           const std::string& fallback) const {
  const std::string v = get(name, fallback);
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const auto comma = v.find(',', start);
    const std::string item = v.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<int> Options::get_int_list(const std::string& name,
                                       const std::string& fallback) const {
  std::vector<int> out;
  for (const auto& s : get_list(name, fallback)) {
    out.push_back(static_cast<int>(std::strtol(s.c_str(), nullptr, 10)));
  }
  return out;
}

sim::EngineKind Options::engine() const {
  const std::string e = get("engine", "sim");
  if (e == "sim") return sim::EngineKind::Sim;
  if (e == "threads") return sim::EngineKind::Threads;
  std::fprintf(stderr, "unknown --engine '%s' (sim|threads)\n", e.c_str());
  std::exit(2);
}

int Options::reps(int fallback) const {
  return static_cast<int>(get_long("reps", fallback));
}

std::vector<int> Options::threads(const std::string& fallback) const {
  return get_int_list("threads", fallback);
}

std::vector<std::string> Options::allocators(
    const std::string& fallback) const {
  return get_list("alloc", fallback);
}

std::uint64_t Options::seed() const {
  return static_cast<std::uint64_t>(get_long("seed", 20150207));  // PPoPP'15
}

double Options::scale() const { return get_double("scale", 1.0); }

bool Options::fault_enabled() const {
  static const char* kFlags[] = {
      "fault-seed",         "fault-oom-rate",         "fault-oom-budget",
      "fault-oom-region",   "fault-reserve-rate",     "fault-reserve-cap",
      "fault-spurious-rate", "fault-delay-free-rate",
      "fault-delay-free-cycles",
      "fault-corrupt-tag-rate", "fault-corrupt-overflow-rate",
      "fault-corrupt-reuse-rate", "fault-corrupt-budget"};
  for (const char* f : kFlags) {
    if (has(f)) return true;
  }
  return false;
}

fault::FaultPlan Options::fault_plan() const {
  fault::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(
      get_long("fault-seed", static_cast<long>(plan.seed)));
  plan.oom_rate = get_double("fault-oom-rate", 0.0);
  if (has("fault-oom-budget")) {
    plan.oom_budget = static_cast<std::uint64_t>(get_long("fault-oom-budget", 0));
  }
  const std::string region = get("fault-oom-region", "tx");
  if (region == "all") {
    plan.oom_everywhere = true;
  } else if (region != "tx") {
    std::fprintf(stderr, "unknown --fault-oom-region '%s' (tx|all)\n",
                 region.c_str());
    std::exit(2);
  }
  plan.reserve_rate = get_double("fault-reserve-rate", 0.0);
  plan.reserve_cap_bytes =
      static_cast<std::uint64_t>(get_long("fault-reserve-cap", 0));
  plan.spurious_abort_rate = get_double("fault-spurious-rate", 0.0);
  plan.delay_free_rate = get_double("fault-delay-free-rate", 0.0);
  plan.delay_free_cycles = static_cast<std::uint64_t>(
      get_long("fault-delay-free-cycles",
               static_cast<long>(plan.delay_free_cycles)));
  plan.corrupt_tag_rate = get_double("fault-corrupt-tag-rate", 0.0);
  plan.corrupt_overflow_rate = get_double("fault-corrupt-overflow-rate", 0.0);
  plan.corrupt_reuse_rate = get_double("fault-corrupt-reuse-rate", 0.0);
  if (has("fault-corrupt-budget")) {
    plan.corrupt_budget =
        static_cast<std::uint64_t>(get_long("fault-corrupt-budget", 0));
  }
  return plan;
}

stm::ContentionManager Options::cm() const {
  const std::string v = get("cm", "suicide");
  if (v == "suicide") return stm::ContentionManager::kSuicide;
  if (v == "backoff") return stm::ContentionManager::kBackoff;
  std::fprintf(stderr, "unknown --cm '%s' (suicide|backoff)\n", v.c_str());
  std::exit(2);
}

bool Options::guard_enabled() const {
  static const char* kFlags[] = {"guard", "guard-quarantine-epochs",
                                 "guard-commits-per-epoch",
                                 "guard-max-findings", "guard-hard-cap"};
  for (const char* f : kFlags) {
    if (has(f)) return true;
  }
  return false;
}

guard::GuardConfig Options::guard_config() const {
  guard::GuardConfig gc;
  gc.quarantine_epochs = static_cast<std::uint64_t>(
      get_long("guard-quarantine-epochs",
               static_cast<long>(gc.quarantine_epochs)));
  gc.commits_per_epoch = static_cast<std::uint64_t>(
      get_long("guard-commits-per-epoch",
               static_cast<long>(gc.commits_per_epoch)));
  gc.max_findings = static_cast<std::size_t>(
      get_long("guard-max-findings", static_cast<long>(gc.max_findings)));
  gc.hard_cap = static_cast<std::size_t>(
      get_long("guard-hard-cap", static_cast<long>(gc.hard_cap)));
  return gc;
}

check::CheckConfig Options::check_config(unsigned shift,
                                         unsigned ort_log2) const {
  check::CheckConfig ccfg;
  ccfg.shift = shift;
  ccfg.ort_log2 = ort_log2;
  ccfg.max_reports =
      static_cast<std::size_t>(get_long("check-max-reports", 64));
  const std::string v = get("check", "");
  if (v.empty() || v == "1" || v == "all") return ccfg;  // both prongs
  ccfg.race = false;
  ccfg.lifetime = false;
  for (const auto& item : get_list("check", "")) {
    if (item == "race") {
      ccfg.race = true;
    } else if (item == "lifetime") {
      ccfg.lifetime = true;
    } else if (item == "all" || item == "1") {
      ccfg.race = ccfg.lifetime = true;
    } else {
      std::fprintf(stderr, "unknown --check prong '%s' (race|lifetime|all)\n",
                   item.c_str());
      std::exit(2);
    }
  }
  return ccfg;
}

phase::PhaseConfig Options::phase_config() const {
  phase::PhaseConfig pc;
  pc.commits_per_epoch = static_cast<std::uint64_t>(
      get_long("phase-commits-per-epoch",
               static_cast<long>(pc.commits_per_epoch)));
  pc.slab_bytes = static_cast<std::size_t>(
      get_long("phase-slab-bytes", static_cast<long>(pc.slab_bytes)));
  const std::string v = get("phase-compact", "off");
  if (v == "off") {
    pc.compact = phase::PhaseConfig::Compact::kOff;
  } else if (v == "checked") {
    pc.compact = phase::PhaseConfig::Compact::kChecked;
  } else if (v == "all") {
    pc.compact = phase::PhaseConfig::Compact::kAll;
  } else {
    std::fprintf(stderr, "unknown --phase-compact '%s' (off|checked|all)\n",
                 v.c_str());
    std::exit(2);
  }
  return pc;
}

sim::Topology Options::topology() const {
  sim::Topology topo;
  topo.nodes = static_cast<unsigned>(get_long("numa-nodes", 1));
  if (topo.nodes == 0) topo.nodes = 1;
  topo.cores_per_node =
      static_cast<unsigned>(get_long("numa-cores-per-node", 0));
  return topo;
}

alloc::NumaOptions Options::numa_options() const {
  alloc::NumaOptions o;
  const std::string v = get("numa-policy", "first-touch");
  if (v == "first-touch") {
    o.policy = alloc::NumaOptions::Policy::kFirstTouch;
  } else if (v == "interleave") {
    o.policy = alloc::NumaOptions::Policy::kInterleave;
  } else if (v.rfind("bind", 0) == 0) {
    o.policy = alloc::NumaOptions::Policy::kBind;
    const auto colon = v.find(':');
    if (colon != std::string::npos) {
      o.bind_node = static_cast<unsigned>(
          std::strtol(v.c_str() + colon + 1, nullptr, 10));
    }
  } else {
    std::fprintf(stderr,
                 "unknown --numa-policy '%s' "
                 "(first-touch|interleave|bind[:NODE])\n",
                 v.c_str());
    std::exit(2);
  }
  return o;
}

RunSpec Options::run_spec() const {
  RunSpec spec;
  spec.allocator = get("alloc", spec.allocator);
  spec.engine = engine();
  spec.cache_model = get_long("cache-model", 1) != 0;
  spec.seed = seed();
  spec.topology = topology();
  spec.numa = numa_options();
  spec.ort_shards = static_cast<unsigned>(get_long("ort-shards", 0));
  spec.shift = static_cast<unsigned>(get_long("shift", spec.shift));
  const std::string design = get("design", "wb");
  if (design == "wt") {
    spec.design = stm::StmDesign::kWriteThroughEtl;
  } else if (design == "ctl") {
    spec.design = stm::StmDesign::kCommitTimeLocking;
  } else if (design != "wb") {
    std::fprintf(stderr, "unknown --design '%s' (wb|wt|ctl)\n",
                 design.c_str());
    std::exit(2);
  }
  spec.cm = cm();
  spec.tx_alloc_cache = get_long("txcache", 0) != 0;
  spec.htm_enabled = get_long("hybrid", 0) != 0;
  // Under injected faults, escalation is the liveness guarantee (an OOM
  // storm would otherwise retry forever), so it defaults on.
  spec.retry_cap = static_cast<unsigned>(
      get_long("stm-retry-cap", fault_enabled() ? 64 : 0));
  spec.tx_cycle_budget =
      static_cast<std::uint64_t>(get_long("watchdog-tx-cycles", 0));
  spec.watchdog_cycles =
      static_cast<std::uint64_t>(get_long("watchdog-run-cycles", 0));
  if (fault_enabled()) spec.fault = fault_plan();
  if (has("check")) spec.check = check_config(spec.shift, spec.ort_log2);
  if (guard_enabled()) spec.guard = guard_config();
  spec.prof = prof();
  spec.prof_sample_cycles = static_cast<std::uint64_t>(
      get_long("prof-sample-cycles",
               static_cast<long>(spec.prof_sample_cycles)));
  spec.phase = phase_config();
  return spec;
}

void Options::print_help(const char* what) const {
  std::printf(
      "%s\n"
      "common options:\n"
      "  --engine sim|threads   execution engine (default sim)\n"
      "  --threads 1,2,4,8      thread counts\n"
      "  --alloc a,b,...        allocators (glibc,hoard,tbb,tcmalloc,system)\n"
      "  --reps N               repetitions per configuration\n"
      "  --seed S               experiment seed\n"
      "  --scale X              workload scale factor (default 1)\n"
      "  --csv PATH             also write results as CSV\n"
      "  --cache-model 0|1      toggle the cache simulator (sim engine)\n"
      "STM configuration:\n"
      "  --shift K              ORT stripe shift: 2^K bytes per lock\n"
      "                         (default 5)\n"
      "  --design wb|wt|ctl     write-back, write-through or commit-time\n"
      "                         locking (default wb)\n"
      "  --txcache 0|1          thread-local transactional object cache\n"
      "                         (default 0)\n"
      "  --hybrid 0|1           hybrid execution: hardware path with the\n"
      "                         software fallback (default 0)\n"
      "NUMA topology / placement (sim engine):\n"
      "  --numa-nodes N         NUMA nodes in the simulated machine (default\n"
      "                         1 = flat; >1 adds remote-memory latency)\n"
      "  --numa-cores-per-node C  cores per node (default 0 = threads/nodes)\n"
      "  --numa-policy P        page homing: first-touch|interleave|bind[:N]\n"
      "  --ort-shards N         per-node ORT stripe tables (0 = one global\n"
      "                         table; typically set to --numa-nodes)\n"
      "observability:\n"
      "  --trace PATH           write a Chrome trace_event JSON (Perfetto)\n"
      "  --metrics-out PATH     write the unified metrics registry as JSON\n"
      "  --attribution          print top-K abort attribution per stripe\n"
      "  --attribution-topk K   stripes in the attribution report (default 8)\n"
      "  --trace-capacity N     per-thread event ring capacity (default 64Ki)\n"
      "trace capture:\n"
      "  --record-trace PATH    capture the run as a tmx-trace-v1 trace\n"
      "  --list-allocators      print the allocator registry and exit\n"
      "fault injection / degradation:\n"
      "  --fault-seed S           fault-plan seed (default 20150207)\n"
      "  --fault-oom-rate P       P(malloc returns nullptr) per call\n"
      "  --fault-oom-budget N     cap injected allocation failures at N\n"
      "  --fault-oom-region tx|all  restrict OOM to transactional allocs\n"
      "  --fault-reserve-rate P   P(page reservation refused) per call\n"
      "  --fault-reserve-cap B    hard byte cap on total page reservations\n"
      "  --fault-spurious-rate P  P(extra abort injected) per commit\n"
      "  --fault-delay-free-rate P  P(free parked for a virtual delay)\n"
      "  --fault-delay-free-cycles N  parked-free delay (default 10000)\n"
      "  --fault-corrupt-tag-rate P  P(boundary tag scribbled at free) --\n"
      "                           requires --guard, which performs & detects\n"
      "  --fault-corrupt-overflow-rate P  P(one-byte overflow past a block)\n"
      "  --fault-corrupt-reuse-rate P  P(write into quarantined memory)\n"
      "  --fault-corrupt-budget N cap total injected corruptions (all sites)\n"
      "  --stm-retry-cap K        serial-irrevocable after K aborts (0 = off;\n"
      "                           defaults to 64 when faults are enabled)\n"
      "  --watchdog-tx-cycles N   per-transaction virtual-cycle budget\n"
      "  --watchdog-run-cycles N  whole-run virtual-cycle budget\n"
      "  --cm suicide|backoff     contention manager (default suicide)\n"
      "correctness checking (tmx::check):\n"
      "  --check race,lifetime    enable the race / lifetime checkers (bare\n"
      "                           --check = both); sim engine only, requires\n"
      "                           --txcache 0 and --hybrid 0\n"
      "  --check-max-reports N    verbatim reports kept (counters keep\n"
      "                           counting past the cap; default 64)\n"
      "heap-integrity hardening (tmx::guard):\n"
      "  --guard                  canaries + boundary-tag verification +\n"
      "                           quiescence-aware quarantine; sim engine\n"
      "                           only, requires --txcache 0 and\n"
      "                           --phase-compact off; exits 5 on hard\n"
      "                           corruption\n"
      "  --guard-quarantine-epochs N  epochs a freed block stays poisoned\n"
      "                           before release (0 = detect-only: verify at\n"
      "                           free and forward immediately; default 1)\n"
      "  --guard-commits-per-epoch N  commits between guard epoch advances\n"
      "                           (default 256)\n"
      "  --guard-max-findings N   verbatim findings kept (default 64)\n"
      "  --guard-hard-cap N       exit 5 after N findings (0 = never trip\n"
      "                           mid-run; default 64)\n"
      "profiling (tmx::prof):\n"
      "  --prof                   latency/heap profiling plane (HDR latency\n"
      "                           histograms, site attribution, RSS series)\n"
      "  --prof-out PREFIX        write PREFIX.timeseries.csv, PREFIX.sites.csv\n"
      "                           and PREFIX.folded (default prefix: prof)\n"
      "  --prof-sample-cycles N   sampler cadence in virtual cycles\n"
      "                           (default 100000; 0 = sampler off)\n"
      "phase-lifetime allocator (--alloc phase, tmx::phase):\n"
      "  --phase-commits-per-epoch N  commits between epoch advances\n"
      "                           (default 256; smaller = finer reclaim)\n"
      "  --phase-slab-bytes B     slab size, power of two (default 65536)\n"
      "  --phase-compact M        straggler compaction in quiescent windows:\n"
      "                           off|checked|all (checked relocates only\n"
      "                           blocks the --check lifetime prong proved\n"
      "                           private; default off)\n",
      what);
}

bool handle_list_allocators(const Options& opt) {
  if (!opt.list_allocators()) return false;
  alloc::print_registry(stdout);
  return true;
}

bool planes_compatible(const RunSpec& spec) {
  const auto refuse = [](const char* why) {
    std::fprintf(stderr, "error: %s\n", why);
    return false;
  };
  const bool on_sim = spec.engine == sim::EngineKind::Sim;
  if (spec.check) {
    if (!on_sim) return refuse("--check requires --engine sim");
    if (spec.htm_enabled) {
      return refuse("--check requires --hybrid 0 (the hardware path is not "
                    "instrumented)");
    }
    if (spec.tx_alloc_cache) {
      return refuse("--check requires --txcache 0 (the transactional object "
                    "cache recycles blocks outside the checked allocator)");
    }
  }
  if (spec.guard) {
    if (!on_sim) return refuse("--guard requires --engine sim");
    if (spec.tx_alloc_cache) {
      return refuse("--guard requires --txcache 0 (the object cache bins by "
                    "usable_size, which the guard narrows to the requested "
                    "size)");
    }
    if (spec.phase.compact != phase::PhaseConfig::Compact::kOff) {
      return refuse("--guard requires --phase-compact off (relocation "
                    "breaks the guard's address-keyed tables)");
    }
  }
  return true;
}

}  // namespace tmx::harness
