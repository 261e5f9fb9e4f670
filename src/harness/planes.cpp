#include "harness/run_context.hpp"

#include <cstdio>

#include "check/check_alloc.hpp"
#include "fault/fault_alloc.hpp"
#include "guard/guard_alloc.hpp"
#include "harness/options.hpp"
#include "prof/prof_alloc.hpp"

namespace tmx::harness {

namespace {

using Inner = std::unique_ptr<alloc::Allocator>;

// The steps fault, check and guard share. The plane is on when its
// RunSpec member kCfg is set; kOpen fills its context slot kSlot; its
// layer, Layer, wraps the stack while the slot is filled; kOutput reads
// its PlaneOutputs member kOut, which kPublish publishes.
template <auto kCfg, auto kSlot, auto kOut, class Layer, auto kOpen,
          auto kOutput, auto kPublish>
constexpr Plane slot_plane(const char* name,
                           void (*parse)(const Options&, RunSpec&),
                           std::span<const Constraint> constraints,
                           int (*report)(const PlaneOutputs&,
                                         std::vector<std::string>&)) {
  return {
      name,
      parse,
      [](const RunSpec& s) { return (s.*kCfg).has_value(); },
      constraints,
      [](sim::RunContext& ctx, const RunSpec& s) { kOpen(ctx, *(s.*kCfg)); },
      [](Inner a, sim::RunContext& ctx, const RunSpec&) -> Inner {
        if (ctx.*kSlot == nullptr) return a;
        return std::make_unique<Layer>(std::move(a));
      },
      [](const sim::RunContext& ctx, const RunSpec&, PlaneOutputs& out) {
        if (ctx.*kSlot != nullptr) out.*kOut = kOutput();
      },
      [](const PlaneOutputs& out, obs::MetricsRegistry& reg,
         const std::string& prefix) {
        if (out.*kOut) kPublish(*(out.*kOut), reg, prefix);
      },
      report,
      {},
  };
}

// --check race|lifetime|all[,...]; a bare --check means all.
void parse_check(const Options& o, RunSpec& s) {
  if (!o.has("check")) return;
  check::CheckConfig& c = s.check.emplace();
  c.shift = s.shift;  // stripes line up with the checked run
  c.ort_log2 = s.ort_log2;
  c.max_reports = static_cast<std::size_t>(o.get_long("check-max-reports"));
  const std::vector<std::string> prongs = o.get_list("check");
  if (!prongs.empty()) c.race = c.lifetime = false;
  for (const std::string& p : prongs) {
    c.race = c.race || p != "lifetime";
    c.lifetime = c.lifetime || p != "race";
  }
}

// Any --guard* flag turns the guard on.
void parse_guard(const Options& o, RunSpec& s) {
  if (!o.has_prefix("guard")) return;
  guard::GuardConfig& g = s.guard.emplace();
  g.quarantine_epochs =
      static_cast<std::uint64_t>(o.get_long("guard-quarantine-epochs"));
  g.commits_per_epoch =
      static_cast<std::uint64_t>(o.get_long("guard-commits-per-epoch"));
  g.max_findings = static_cast<std::size_t>(o.get_long("guard-max-findings"));
  g.hard_cap = static_cast<std::size_t>(o.get_long("guard-hard-cap"));
}

// Any --fault-* flag turns fault injection on. Escalation is then the
// liveness guarantee (an OOM storm would otherwise retry forever), so the
// retry cap defaults on.
void parse_fault(const Options& o, RunSpec& s) {
  if (!o.has_prefix("fault-")) return;
  if (!o.has("stm-retry-cap")) s.retry_cap = 64;
  fault::FaultPlan& p = s.fault.emplace();
  p.seed = static_cast<std::uint64_t>(o.get_long("fault-seed"));
  p.oom_rate = o.get_double("fault-oom-rate");
  if (o.has("fault-oom-budget")) {
    p.oom_budget = static_cast<std::uint64_t>(o.get_long("fault-oom-budget"));
  }
  p.oom_everywhere = o.choice("fault-oom-region") == 1;
  p.reserve_rate = o.get_double("fault-reserve-rate");
  p.reserve_cap_bytes =
      static_cast<std::uint64_t>(o.get_long("fault-reserve-cap"));
  p.spurious_abort_rate = o.get_double("fault-spurious-rate");
  p.delay_free_rate = o.get_double("fault-delay-free-rate");
  p.delay_free_cycles =
      static_cast<std::uint64_t>(o.get_long("fault-delay-free-cycles"));
  p.corrupt_tag_rate = o.get_double("fault-corrupt-tag-rate");
  p.corrupt_overflow_rate = o.get_double("fault-corrupt-overflow-rate");
  p.corrupt_reuse_rate = o.get_double("fault-corrupt-reuse-rate");
  if (o.has("fault-corrupt-budget")) {
    p.corrupt_budget =
        static_cast<std::uint64_t>(o.get_long("fault-corrupt-budget"));
  }
}

// A hard report fails the run with 4, distinct from a workload's 1. The
// reports go to stdout, whose text is byte-stable.
int report_check(const PlaneOutputs& out, std::vector<std::string>&) {
  if (!out.check || out.check->hard_count() == 0) return 0;
  check::print_reports(*out.check, stdout);
  return 4;
}

// Findings print offsets in the run's address space, so they go to stdout
// too.
int report_guard(const PlaneOutputs& out, std::vector<std::string>&) {
  if (!out.guard || out.guard->corruptions() == 0) return 0;
  guard::print_findings(*out.guard, stdout);
  return guard::kExitCode;
}

int report_nothing(const PlaneOutputs&, std::vector<std::string>&) {
  return 0;
}

// The checker's tables and the guard's are host-side, without
// synchronization, and the transactional object cache bypasses both.
constexpr Constraint kCheckNeeds[] = {
    {Needs::kSimEngine, "--check requires --engine sim"},
    {Needs::kNoHybrid, "--check requires --hybrid 0 (the hardware path is "
                       "not instrumented)"},
    {Needs::kNoTxcache, "--check requires --txcache 0 (the transactional "
                        "object cache recycles blocks outside the checked "
                        "allocator)"},
};
constexpr Constraint kGuardNeeds[] = {
    {Needs::kSimEngine, "--guard requires --engine sim"},
    {Needs::kNoTxcache, "--guard requires --txcache 0 (the object cache bins "
                        "by usable_size, which the guard narrows to the "
                        "requested size)"},
    {Needs::kNoCompaction, "--guard requires --phase-compact off (relocation "
                           "breaks the guard's address-keyed tables)"},
};
constexpr const char* kProfFiles[] = {"timeseries.csv", "sites.csv", "folded"};

constexpr Plane kRows[] = {
    slot_plane<&RunSpec::check, &sim::RunContext::check, &PlaneOutputs::check,
               check::CheckedAllocator, check::open, check::summary,
               check::publish_metrics>("check", parse_check, kCheckNeeds,
                                       report_check),
    slot_plane<&RunSpec::guard, &sim::RunContext::guard, &PlaneOutputs::guard,
               guard::GuardedAllocator, guard::open, guard::summary,
               guard::publish_metrics>("guard", parse_guard, kGuardNeeds,
                                       report_guard),
    slot_plane<&RunSpec::fault, &sim::RunContext::fault, &PlaneOutputs::fault,
               fault::FaultyAllocator, fault::open, fault::stats,
               fault::publish_metrics>("fault", parse_fault, {},
                                       report_nothing),
    {
        "prof",
        [](const Options& o, RunSpec& s) {
          s.prof = o.has("prof");
          s.prof_sample_cycles =
              static_cast<std::uint64_t>(o.get_long("prof-sample-cycles"));
        },
        [](const RunSpec& s) { return s.prof; },
        {},
        [](sim::RunContext&, const RunSpec&) {},
        // The profiler opens on its own layer, which it observes.
        [](Inner a, sim::RunContext& ctx, const RunSpec& s) -> Inner {
          if (!s.prof) return a;
          a = std::make_unique<prof::ProfilingAllocator>(std::move(a));
          prof::ProfConfig cfg;
          cfg.sample_cycles = s.prof_sample_cycles;
          cfg.allocator = a.get();
          prof::open(ctx, cfg);
          return a;
        },
        // Rows labeled with the allocator.
        [](const sim::RunContext& ctx, const RunSpec& s, PlaneOutputs& out) {
          if (ctx.prof) out.prof = prof::profile(s.allocator);
        },
        [](const PlaneOutputs& out, obs::MetricsRegistry& reg,
           const std::string& prefix) {
          if (out.prof) prof::publish_metrics(*out.prof, reg, prefix);
        },
        [](const PlaneOutputs& out, std::vector<std::string>& files) {
          if (!out.prof) return 0;
          if (files.empty()) {
            files = {prof::timeseries_csv_header(), prof::sites_csv_header(),
                     ""};
          }
          files[0] += out.prof->timeseries_csv;
          files[1] += out.prof->sites_csv;
          files[2] += out.prof->folded;
          return 0;
        },
        kProfFiles,
    },
};

}  // namespace

bool meets(const RunSpec& spec, Needs needs) {
  switch (needs) {
    case Needs::kSimEngine: return spec.engine == sim::EngineKind::Sim;
    case Needs::kNoHybrid: return !spec.htm_enabled;
    case Needs::kNoTxcache: return !spec.tx_alloc_cache;
    case Needs::kNoCompaction:
      return spec.phase.compact == phase::PhaseConfig::Compact::kOff;
  }
  return false;
}

constinit const std::span<const Plane> kPlanes = kRows;

}  // namespace tmx::harness
