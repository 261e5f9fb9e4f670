#include "harness/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "alloc/allocator.hpp"
#include "harness/run_context.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

namespace {

using K = Flag::Kind;

static_assert(kMaxThreads == 256, "kThreadsHint spells out kMaxThreads");

// run_spec() maps a closed-set value through its index, so each set lists
// its alternatives in the order of the enum it selects.
constexpr Flag kRunFlagList[] = {
    {"engine", K::kText, "sim|threads", "sim", "execution engine"},
    {"cache-model", K::kInt, "0|1", "1", "cache simulator (sim engine)"},
    {"seed", K::kInt, "S", "20150207", "experiment seed"},
    // Stm asserts it: ort_index shifts a uintptr_t by it.
    {"shift", K::kInt, "0..63", "5", "ORT stripe shift: 2^K bytes per lock"},
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
    {"check", K::kOptional, "race|lifetime|all[,...]", nullptr,
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

// What an item of a `kind` value must be when `item` is not; else nullptr.
const char* misshapen(Flag::Kind kind, const std::string& item) {
  switch (kind) {
    case K::kInt: return parse_long(item, nullptr) ? nullptr : "an integer";
    case K::kReal: return parse_double(item, nullptr) ? nullptr : "a number";
    case K::kInts:
      return parse_long(item, nullptr) ? nullptr : "a comma list of integers";
    case K::kModel:
      return alloc::allocator_exists(item) ? nullptr : "a registered allocator";
    case K::kModels:
      return alloc::allocator_exists(item)
                 ? nullptr
                 : "a comma list of registered allocators";
    default: return nullptr;
  }
}

constexpr std::string_view kListSuffix = "[,...]";
constexpr auto kOutside = std::string_view::npos;

// `f`'s hint without its list suffix.
std::string_view domain_of(const Flag& f) {
  std::string_view d = f.hint != nullptr ? f.hint : "";
  if (d.ends_with(kListSuffix)) d.remove_suffix(kListSuffix.size());
  return d;
}

bool is_range(std::string_view d, long* lo, long* hi) {
  const auto dots = d.find("..");
  return dots != std::string_view::npos &&
         parse_long(std::string(d.substr(0, dots)), lo) &&
         parse_long(std::string(d.substr(dots + 2)), hi);
}

// The index of `item` among closed set `d`'s alternatives, or 0 when range
// `d` holds it; else kOutside.
std::size_t index_in(std::string_view d, const std::string& item) {
  long lo = 0, hi = 0, v = 0;
  if (is_range(d, &lo, &hi)) {
    return parse_long(item, &v) && lo <= v && v <= hi ? 0 : kOutside;
  }
  for (std::size_t i = 0, start = 0; start <= d.size(); ++i) {
    const std::size_t end = std::min(d.find('|', start), d.size());
    const std::string_view alt = d.substr(start, end - start);
    const auto opt = alt.find("[:");  // "a[:NAME]" also takes "a:N", N >= 0
    const std::string word(alt.substr(0, opt));
    if (item == word || (opt != kOutside && item.starts_with(word + ":") &&
                         parse_long(item.substr(word.size() + 1), &v) &&
                         v >= 0)) {
      return i;
    }
    start = end + 1;
  }
  return kOutside;
}

// What `f`'s value must be and the item of `value` that is not; "" when
// every item is. A bare --check has no item; an empty list is one item "".
std::string misfit(const Flag& f, const std::string& value) {
  if (f.kind == K::kOptional && value.empty()) return "";
  const std::string_view d = domain_of(f);
  long lo = 0, hi = 0;
  const bool bounded = d.find('|') != kOutside || is_range(d, &lo, &hi);
  std::vector<std::string> items{value};
  if (f.kind == K::kInts || f.kind == K::kModels ||
      (bounded && std::string_view(f.hint).ends_with(kListSuffix))) {
    items = split_list(value);
    if (items.empty()) items.emplace_back();
  }
  for (const std::string& item : items) {
    const char* want = misshapen(f.kind, item);
    if (want == nullptr && bounded && index_in(d, item) == kOutside) {
      want = f.hint;
    }
    if (want != nullptr) return std::string(want) + ", got '" + item + "'";
  }
  return "";
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
      TMX_ASSERT_MSG(f.fallback == nullptr || misfit(f, f.fallback).empty(),
                     "flag default outside its domain");
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
    if (const std::string why = misfit(*f, value); !why.empty()) {
      usage_error("--" + name + " expects " + why);
    }
    help = help || name == "help";
    if (!kv_.emplace(name, value).second) {
      usage_error("--" + name + " given twice");
    }
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
      std::string line = std::string("  --") + f.name;
      if (f.hint != nullptr) line += std::string(" ") + f.hint;
      line += line.size() < indent.size() ? indent.substr(line.size())
                                          : '\n' + indent;
      line += f.help;
      if (f.fallback != nullptr && *f.fallback != '\0') {
        line += std::string(" (default ") + f.fallback + ')';
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
  return kv_.contains(name);
}

bool Options::has_prefix(std::string_view prefix) const {
  const auto it = kv_.lower_bound(prefix);
  return it != kv_.end() && it->first.starts_with(prefix);
}

std::string Options::get(std::string_view name) const {
  const Flag& f = flag(name);
  if (const auto it = kv_.find(name); it != kv_.end()) return it->second;
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

std::size_t Options::choice(std::string_view name) const {
  const std::size_t i = index_in(domain_of(flag(name)), get(name));
  TMX_ASSERT_MSG(i != kOutside, "choice() of a value outside a closed set");
  return i;
}

RunSpec Options::run_spec() const {
  RunSpec spec;
  spec.engine = static_cast<sim::EngineKind>(choice("engine"));
  spec.cache_model = get_long("cache-model") != 0;
  spec.seed = static_cast<std::uint64_t>(get_long("seed"));
  spec.topology.nodes = static_cast<unsigned>(get_long("numa-nodes"));
  if (spec.topology.nodes == 0) spec.topology.nodes = 1;
  spec.topology.cores_per_node =
      static_cast<unsigned>(get_long("numa-cores-per-node"));
  spec.numa.policy =
      static_cast<alloc::NumaOptions::Policy>(choice("numa-policy"));
  const std::string policy = get("numa-policy");
  if (const auto colon = policy.find(':'); colon != std::string::npos) {
    spec.numa.bind_node = static_cast<unsigned>(
        std::strtoul(policy.c_str() + colon + 1, nullptr, 10));
  }
  spec.ort_shards = static_cast<unsigned>(get_long("ort-shards"));
  spec.shift = static_cast<unsigned>(get_long("shift"));
  spec.design = static_cast<stm::StmDesign>(choice("design"));
  spec.cm = static_cast<stm::ContentionManager>(choice("cm"));
  spec.tx_alloc_cache = get_long("txcache") != 0;
  spec.htm_enabled = get_long("hybrid") != 0;
  spec.retry_cap = static_cast<unsigned>(get_long("stm-retry-cap"));
  spec.tx_cycle_budget =
      static_cast<std::uint64_t>(get_long("watchdog-tx-cycles"));
  spec.watchdog_cycles =
      static_cast<std::uint64_t>(get_long("watchdog-run-cycles"));
  for (const Plane& p : kPlanes) p.parse(*this, spec);
  spec.phase.commits_per_epoch =
      static_cast<std::uint64_t>(get_long("phase-commits-per-epoch"));
  spec.phase.slab_bytes =
      static_cast<std::size_t>(get_long("phase-slab-bytes"));
  spec.phase.compact =
      static_cast<phase::PhaseConfig::Compact>(choice("phase-compact"));
  return spec;
}

}  // namespace tmx::harness
