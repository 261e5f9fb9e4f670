#include "harness/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "alloc/allocator.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

namespace {

using K = Flag::Kind;

constexpr Flag kRunFlagList[] = {
    {"engine", K::kText, "sim|threads", "sim", "execution engine"},
    {"cache-model", K::kInt, "0|1", "1", "cache simulator (sim engine)"},
    {"seed", K::kInt, "S", "20150207", "experiment seed"},
    {"shift", K::kInt, "K", "5", "ORT stripe shift: 2^K bytes per lock"},
    {"design", K::kText, "wb|wt|ctl", "wb",
     "write-back, write-through or commit-time locking STM"},
    {"cm", K::kText, "suicide|backoff", "suicide", "contention manager"},
    {"txcache", K::kInt, "0|1", "0", "transactional object cache"},
    {"hybrid", K::kInt, "0|1", "0", "hardware path + software fallback"},
    {"numa-nodes", K::kInt, "N", "1", "NUMA nodes (1 = flat machine)"},
    {"numa-cores-per-node", K::kInt, "C", "0", "0 = threads / nodes"},
    {"numa-policy", K::kText, "first-touch|interleave|bind[:NODE]",
     "first-touch", "page homing"},
    {"ort-shards", K::kInt, "N", "0", "per-node ORT tables; 0 = one"},
    {"stm-retry-cap", K::kInt, "K", nullptr,
     "irrevocable after K aborts (default 0 = off; 64 with --fault-*)"},
    {"watchdog-tx-cycles", K::kInt, "N", "0", "per-transaction cycle budget"},
    {"watchdog-run-cycles", K::kInt, "N", "0", "whole-run cycle budget"},
    // Any --fault-* flag turns the fault plane on.
    {"fault-seed", K::kInt, "S", "20150207", "fault-plan seed"},
    {"fault-oom-rate", K::kReal, "P", "0", "P(malloc returns nullptr)"},
    {"fault-oom-budget", K::kInt, "N", nullptr, "cap on injected OOMs"},
    {"fault-oom-region", K::kText, "tx|all", "tx", "where OOM is injected"},
    {"fault-reserve-rate", K::kReal, "P", "0", "P(page reservation fails)"},
    {"fault-reserve-cap", K::kInt, "B", "0", "reserved-bytes cap (0 = none)"},
    {"fault-spurious-rate", K::kReal, "P", "0", "P(extra abort) per commit"},
    {"fault-delay-free-rate", K::kReal, "P", "0", "P(free is delayed)"},
    {"fault-delay-free-cycles", K::kInt, "N", "10000", "free delay"},
    {"fault-corrupt-tag-rate", K::kReal, "P", "0",
     "P(boundary tag scribbled at free); needs --guard"},
    {"fault-corrupt-overflow-rate", K::kReal, "P", "0",
     "P(one-byte overflow past a block)"},
    {"fault-corrupt-reuse-rate", K::kReal, "P", "0",
     "P(write into quarantined memory)"},
    {"fault-corrupt-budget", K::kInt, "N", nullptr, "cap on corruptions"},
    {"check", K::kOptional, "race,lifetime", nullptr,
     "checkers (bare: both); a hard report exits 4"},
    {"check-max-reports", K::kInt, "N", "64", "verbatim reports kept"},
    // Any --guard* flag turns the guard plane on.
    {"guard", K::kBare, nullptr, nullptr,
     "heap-integrity guard; corruption exits 5"},
    {"guard-quarantine-epochs", K::kInt, "N", "1", "0 = detect-only"},
    {"guard-commits-per-epoch", K::kInt, "N", "256", "guard epoch length"},
    {"guard-max-findings", K::kInt, "N", "64", "verbatim findings kept"},
    {"guard-hard-cap", K::kInt, "N", "64",
     "exit 5 after N findings (0 = never mid-run)"},
    {"prof", K::kBare, nullptr, nullptr, "latency/heap profiling plane"},
    {"prof-sample-cycles", K::kInt, "N", "100000", "sampler cadence; 0 = off"},
    {"phase-commits-per-epoch", K::kInt, "N", "256", "phase epoch length"},
    {"phase-slab-bytes", K::kInt, "B", "65536", "phase slab size"},
    {"phase-compact", K::kText, "off|checked|all", "off",
     "straggler compaction in quiescent windows"},
};

constexpr Flag kBuiltinFlagList[] = {
    {"help", K::kBare, nullptr, nullptr, "print this help and exit"},
    {"list-allocators", K::kBare, nullptr, nullptr,
     "print the allocator registry (Table 1) and exit"},
};
constexpr FlagTable kBuiltinFlags{"every binary:", kBuiltinFlagList};

constexpr std::size_t kHelpColumn = 30;

bool parse_long(const std::string& s, long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  if (out != nullptr) *out = v;
  return true;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  if (out != nullptr) *out = v;
  return true;
}

// What `value` must look like for `kind`; nullptr when it does.
const char* malformed(Flag::Kind kind, const std::string& value) {
  switch (kind) {
    case K::kInt:
      return parse_long(value, nullptr) ? nullptr : "an integer";
    case K::kReal:
      return parse_double(value, nullptr) ? nullptr : "a number";
    case K::kInts: {
      const std::vector<std::string> items = split_list(value);
      for (const auto& item : items) {
        if (!parse_long(item, nullptr)) return "a comma list of integers";
      }
      return items.empty() ? "a comma list of integers" : nullptr;
    }
    case K::kModel:
      return alloc::allocator_exists(value) ? nullptr
                                            : "a registered allocator";
    case K::kModels: {
      const std::vector<std::string> items = split_list(value);
      for (const auto& item : items) {
        if (!alloc::allocator_exists(item)) {
          return "a comma list of registered allocators";
        }
      }
      return items.empty() ? "a comma list of registered allocators"
                           : nullptr;
    }
    default:
      return nullptr;
  }
}

// The value of `name` among `choices`; any other value exits 2.
template <class T>
T choose(const Options& o, const char* name,
         std::initializer_list<std::pair<const char*, T>> choices) {
  const std::string v = o.get(name);
  std::string all;
  for (const auto& [key, value] : choices) {
    if (v == key) return value;
    all += all.empty() ? key : std::string("|") + key;
  }
  std::fprintf(stderr, "unknown --%s '%s' (%s)\n", name, v.c_str(),
               all.c_str());
  std::exit(2);
}

}  // namespace

const FlagTable kRunFlags{"run settings:", kRunFlagList};

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Options::Options(int argc, char** argv,
                 std::initializer_list<FlagTable> tables)
    : program_(argc > 0 ? argv[0] : "tmx"), tables_(tables) {
  program_ = program_.substr(program_.rfind('/') + 1);
  tables_.push_back(kBuiltinFlags);
  for (const FlagTable& t : tables_) {
    for (const Flag& f : t.flags) {
      TMX_ASSERT_MSG(find(f.name) == &f, "flag declared twice");
    }
  }

  bool help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() <= 2 || arg.rfind("--", 0) != 0) {
      usage_error("unexpected argument '" + arg + "'");
    }
    const auto eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const Flag* f = find(name);
    if (f == nullptr) usage_error("unknown flag '--" + name + "'");
    std::string value;
    if (eq != std::string::npos) {
      if (f->kind == K::kBare) usage_error("--" + name + " takes no value");
      value = arg.substr(eq + 1);
    } else if (f->kind != K::kBare && i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else if (f->kind != K::kBare && f->kind != K::kOptional) {
      usage_error("--" + name + " needs a value");
    }
    if (const char* want = malformed(f->kind, value)) {
      usage_error("--" + name + " expects " + want + ", got '" + value + "'");
    }
    help = help || name == "help";
    kv_.emplace_back(name, value);
  }

  if (help) {
    std::fputs(help_text().c_str(), stdout);
    std::exit(0);
  }
  if (has("list-allocators")) {
    alloc::print_registry(stdout);
    std::exit(0);
  }
}

void Options::usage_error(const std::string& why) const {
  std::fprintf(stderr, "%s: %s (see --help)\n", program_.c_str(), why.c_str());
  std::exit(2);
}

std::string Options::help_text() const {
  const std::string indent(kHelpColumn, ' ');
  std::string s = "usage: " + program_ + " [--flag value ...]\n";
  for (const FlagTable& t : tables_) {
    s += '\n';
    s += t.title;
    s += '\n';
    for (const Flag& f : t.flags) {
      std::string line = "  --";
      line += f.name;
      if (f.hint != nullptr) {
        line += ' ';
        line += f.hint;
      }
      line += line.size() < indent.size() ? indent.substr(line.size())
                                          : '\n' + indent;
      line += f.help;
      if (f.fallback != nullptr && *f.fallback != '\0') {
        line += " (default ";
        line += f.fallback;
        line += ')';
      }
      s += line + '\n';
    }
  }
  return s;
}

const Flag* Options::find(std::string_view name) const {
  for (const FlagTable& t : tables_) {
    for (const Flag& f : t.flags) {
      if (name == f.name) return &f;
    }
  }
  return nullptr;
}

const Flag& Options::flag(std::string_view name) const {
  if (const Flag* f = find(name)) return *f;
  std::fprintf(stderr, "%s reads --%.*s, which none of its flag tables "
               "declares\n", program_.c_str(), static_cast<int>(name.size()),
               name.data());
  std::abort();
}

bool Options::has(std::string_view name) const {
  flag(name);
  for (const auto& [k, v] : kv_) {
    if (k == name) return true;
  }
  return false;
}

bool Options::has_prefix(std::string_view prefix) const {
  for (const auto& [k, v] : kv_) {
    if (k.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string Options::get(std::string_view name) const {
  const Flag& f = flag(name);
  for (const auto& [k, v] : kv_) {
    if (k == name) return v;
  }
  return f.fallback != nullptr ? f.fallback : "";
}

long Options::get_long(std::string_view name) const {
  long v = 0;
  parse_long(get(name), &v);
  return v;
}

double Options::get_double(std::string_view name) const {
  double v = 0.0;
  parse_double(get(name), &v);
  return v;
}

std::vector<std::string> Options::get_list(std::string_view name) const {
  return split_list(get(name));
}

RunSpec Options::run_spec() const {
  using Compact = phase::PhaseConfig::Compact;
  RunSpec spec;
  spec.engine = choose<sim::EngineKind>(
      *this, "engine",
      {{"sim", sim::EngineKind::Sim}, {"threads", sim::EngineKind::Threads}});
  spec.cache_model = get_long("cache-model") != 0;
  spec.seed = static_cast<std::uint64_t>(get_long("seed"));
  spec.topology.nodes = static_cast<unsigned>(get_long("numa-nodes"));
  if (spec.topology.nodes == 0) spec.topology.nodes = 1;
  spec.topology.cores_per_node =
      static_cast<unsigned>(get_long("numa-cores-per-node"));
  const std::string policy = get("numa-policy");
  if (policy == "interleave") {
    spec.numa.policy = alloc::NumaOptions::Policy::kInterleave;
  } else if (policy.rfind("bind", 0) == 0) {
    spec.numa.policy = alloc::NumaOptions::Policy::kBind;
    const auto colon = policy.find(':');
    if (colon != std::string::npos) {
      spec.numa.bind_node = static_cast<unsigned>(
          std::strtol(policy.c_str() + colon + 1, nullptr, 10));
    }
  } else if (policy != "first-touch") {
    std::fprintf(stderr,
                 "unknown --numa-policy '%s' "
                 "(first-touch|interleave|bind[:NODE])\n",
                 policy.c_str());
    std::exit(2);
  }
  spec.ort_shards = static_cast<unsigned>(get_long("ort-shards"));
  spec.shift = static_cast<unsigned>(get_long("shift"));
  spec.design = choose<stm::StmDesign>(
      *this, "design",
      {{"wb", stm::StmDesign::kWriteBackEtl},
       {"wt", stm::StmDesign::kWriteThroughEtl},
       {"ctl", stm::StmDesign::kCommitTimeLocking}});
  spec.cm = choose<stm::ContentionManager>(
      *this, "cm",
      {{"suicide", stm::ContentionManager::kSuicide},
       {"backoff", stm::ContentionManager::kBackoff}});
  spec.tx_alloc_cache = get_long("txcache") != 0;
  spec.htm_enabled = get_long("hybrid") != 0;
  // Under injected faults, escalation is the liveness guarantee (an OOM
  // storm would otherwise retry forever), so it defaults on.
  const bool faulty = has_prefix("fault-");
  spec.retry_cap = static_cast<unsigned>(
      has("stm-retry-cap") ? get_long("stm-retry-cap") : faulty ? 64 : 0);
  spec.tx_cycle_budget =
      static_cast<std::uint64_t>(get_long("watchdog-tx-cycles"));
  spec.watchdog_cycles =
      static_cast<std::uint64_t>(get_long("watchdog-run-cycles"));

  if (faulty) {
    fault::FaultPlan& plan = spec.fault.emplace();
    plan.seed = static_cast<std::uint64_t>(get_long("fault-seed"));
    plan.oom_rate = get_double("fault-oom-rate");
    if (has("fault-oom-budget")) {
      plan.oom_budget =
          static_cast<std::uint64_t>(get_long("fault-oom-budget"));
    }
    plan.oom_everywhere = choose<bool>(*this, "fault-oom-region",
                                       {{"tx", false}, {"all", true}});
    plan.reserve_rate = get_double("fault-reserve-rate");
    plan.reserve_cap_bytes =
        static_cast<std::uint64_t>(get_long("fault-reserve-cap"));
    plan.spurious_abort_rate = get_double("fault-spurious-rate");
    plan.delay_free_rate = get_double("fault-delay-free-rate");
    plan.delay_free_cycles =
        static_cast<std::uint64_t>(get_long("fault-delay-free-cycles"));
    plan.corrupt_tag_rate = get_double("fault-corrupt-tag-rate");
    plan.corrupt_overflow_rate = get_double("fault-corrupt-overflow-rate");
    plan.corrupt_reuse_rate = get_double("fault-corrupt-reuse-rate");
    if (has("fault-corrupt-budget")) {
      plan.corrupt_budget =
          static_cast<std::uint64_t>(get_long("fault-corrupt-budget"));
    }
  }

  if (has("check")) {
    check::CheckConfig& ccfg = spec.check.emplace();
    ccfg.shift = spec.shift;
    ccfg.ort_log2 = spec.ort_log2;
    ccfg.max_reports = static_cast<std::size_t>(get_long("check-max-reports"));
    const std::string v = get("check");
    if (!v.empty() && v != "1" && v != "all") {
      ccfg.race = false;
      ccfg.lifetime = false;
      for (const auto& item : split_list(v)) {
        if (item == "race") {
          ccfg.race = true;
        } else if (item == "lifetime") {
          ccfg.lifetime = true;
        } else if (item == "all" || item == "1") {
          ccfg.race = ccfg.lifetime = true;
        } else {
          std::fprintf(stderr,
                       "unknown --check prong '%s' (race|lifetime|all)\n",
                       item.c_str());
          std::exit(2);
        }
      }
    }
  }

  if (has_prefix("guard")) {
    guard::GuardConfig& gc = spec.guard.emplace();
    gc.quarantine_epochs =
        static_cast<std::uint64_t>(get_long("guard-quarantine-epochs"));
    gc.commits_per_epoch =
        static_cast<std::uint64_t>(get_long("guard-commits-per-epoch"));
    gc.max_findings = static_cast<std::size_t>(get_long("guard-max-findings"));
    gc.hard_cap = static_cast<std::size_t>(get_long("guard-hard-cap"));
  }

  spec.prof = has("prof");
  spec.prof_sample_cycles =
      static_cast<std::uint64_t>(get_long("prof-sample-cycles"));
  spec.phase.commits_per_epoch =
      static_cast<std::uint64_t>(get_long("phase-commits-per-epoch"));
  spec.phase.slab_bytes =
      static_cast<std::size_t>(get_long("phase-slab-bytes"));
  spec.phase.compact = choose<Compact>(*this, "phase-compact",
                                       {{"off", Compact::kOff},
                                        {"checked", Compact::kChecked},
                                        {"all", Compact::kAll}});
  return spec;
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
