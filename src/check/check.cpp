// tmx::check plumbing: opening on a run context, report bookkeeping, site
// scopes, and the trampolines that feed engine events (fork/join/lock/
// barrier) into the race prong.

#include "check/check.hpp"

#include <cinttypes>
#include <memory>

#include "check/check_internal.hpp"
#include "obs/metrics.hpp"
#include "sim/address_space.hpp"
#include "sim/engine.hpp"

namespace tmx::check {

namespace detail {

const char* site_or(int tid, const char* fallback) {
  State* s = state();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads &&
      s->scoped_site[static_cast<std::size_t>(tid)] != nullptr) {
    return s->scoped_site[static_cast<std::size_t>(tid)];
  }
  return fallback != nullptr ? fallback : "?";
}

std::size_t stripe_of(std::uintptr_t addr) {
  const State* s = state();
  const unsigned shift = s != nullptr ? s->cfg.shift : 5u;
  const unsigned log2 = s != nullptr ? s->cfg.ort_log2 : 20u;
  return (addr >> shift) & ((std::size_t{1} << log2) - 1);
}

void emit(Report r) {
  State* s = state();
  if (s == nullptr) return;
  ++s->found.counts[static_cast<int>(r.kind)];
  // One stored report per (kind, site, other-site): a racy loop floods the
  // counters, not the report list.
  for (const Report& prev : s->found.reports) {
    if (prev.kind == r.kind && prev.site == r.site &&
        prev.other_site == r.other_site) {
      return;
    }
  }
  if (s->found.reports.size() < s->cfg.max_reports) {
    s->found.reports.push_back(std::move(r));
  }
}

}  // namespace detail

using detail::State;

const char* report_kind_name(ReportKind k) {
  switch (k) {
    case ReportKind::kRace: return "race";
    case ReportKind::kTxLeak: return "tx_leak";
    case ReportKind::kUseAfterFree: return "use_after_free";
    case ReportKind::kDoubleFree: return "double_free";
    case ReportKind::kFreeUnpublished: return "free_unpublished";
    case ReportKind::kInvalidFree: return "invalid_free";
    case ReportKind::kZombieRead: return "zombie_read";
  }
  return "?";
}

namespace {

// Engine trampolines: translate raw engine events into race-prong edges.
// The lock hooks also fire outside parallel regions (sequential allocator
// use); the race prong ignores those itself.

void hook_run_fork(int threads) { detail::race_fork(threads); }
void hook_run_join(int threads) { detail::race_join(threads); }
void hook_lock_acquired(const void* l) {
  detail::race_lock_acquired(sim::self_tid(), l);
}
void hook_lock_released(const void* l) {
  detail::race_lock_released(sim::self_tid(), l);
}
void hook_barrier_arrive(const void* b) {
  detail::race_barrier_arrive(sim::self_tid(), b);
}
void hook_barrier_depart(const void* b) {
  detail::race_barrier_depart(sim::self_tid(), b);
}

}  // namespace

std::uint64_t Summary::hard_count() const {
  std::uint64_t n = 0;
  for (int k = 0; k < kNumReportKinds; ++k) {
    if (static_cast<ReportKind>(k) != ReportKind::kZombieRead) n += counts[k];
  }
  return n;
}

void open(sim::RunContext& ctx, const CheckConfig& cfg) {
  if (!cfg.any()) return;
  ctx.check = std::make_shared<State>();
  ctx.check->cfg = cfg;
  // The lifetime prong still wants fork/join so reset points are known,
  // but needs no lock/barrier edges.
  ctx.check_hooks.run_fork = &hook_run_fork;
  ctx.check_hooks.run_join = &hook_run_join;
  if (cfg.race) {
    ctx.check_hooks.lock_acquired = &hook_lock_acquired;
    ctx.check_hooks.lock_released = &hook_lock_released;
    ctx.check_hooks.barrier_arrive = &hook_barrier_arrive;
    ctx.check_hooks.barrier_depart = &hook_barrier_depart;
  }
  if (cfg.lifetime) {
    // Gate phase compaction on the publication analysis: tmx::phase asks
    // before moving a block and reports every completed move back.
    ctx.check_hooks.relocatable = &relocatable;
    ctx.check_hooks.on_relocated = &on_block_relocate;
  }
}

const Summary& summary() {
  static const Summary kEmpty;
  State* s = detail::state();
  if (s == nullptr) return kEmpty;
  detail::flush_leak_suspects(*s);
  return s->found;
}

void print_reports(const Summary& s, std::FILE* out) {
  std::uint64_t total = 0;
  for (std::uint64_t c : s.counts) total += c;
  std::fprintf(out, "tmx::check: %" PRIu64 " finding(s) (%" PRIu64
                    " hard), %zu distinct:\n",
               total, s.hard_count(), s.reports.size());
  for (const Report& r : s.reports) {
    std::fprintf(out,
                 "  [%s] tid=%d cycle=%" PRIu64 " addr=+0x%" PRIxPTR
                 " stripe=%zu site=%s",
                 report_kind_name(r.kind), r.tid, r.cycle,
                 sim::AddressSpace::offset_of(r.addr), r.stripe,
                 r.site.empty() ? "?" : r.site.c_str());
    if (r.other_tid >= 0) {
      std::fprintf(out, " other{tid=%d cycle=%" PRIu64 " site=%s}",
                   r.other_tid, r.other_cycle,
                   r.other_site.empty() ? "?" : r.other_site.c_str());
    }
    if (!r.detail.empty()) std::fprintf(out, " — %s", r.detail.c_str());
    std::fputc('\n', out);
  }
}

void publish_metrics(const Summary& s, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "races", s.count(ReportKind::kRace));
  reg.set_counter(prefix + "leaks", s.count(ReportKind::kTxLeak));
  reg.set_counter(prefix + "use_after_free",
                  s.count(ReportKind::kUseAfterFree));
  reg.set_counter(prefix + "double_frees", s.count(ReportKind::kDoubleFree));
  reg.set_counter(prefix + "free_unpublished",
                  s.count(ReportKind::kFreeUnpublished));
  reg.set_counter(prefix + "invalid_frees", s.count(ReportKind::kInvalidFree));
  reg.set_counter(prefix + "zombie_reads", s.count(ReportKind::kZombieRead));
  reg.set_counter(prefix + "reports",
                  static_cast<std::uint64_t>(s.reports.size()));
}

const char* current_site() { return detail::site_or(sim::self_tid(), "?"); }

ScopedSite::ScopedSite(const char* site) {
  State* s = detail::state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    saved_ = s->scoped_site[static_cast<std::size_t>(tid)];
    s->scoped_site[static_cast<std::size_t>(tid)] = site;
  } else {
    saved_ = nullptr;
  }
}

ScopedSite::~ScopedSite() {
  State* s = detail::state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    s->scoped_site[static_cast<std::size_t>(tid)] = saved_;
  }
}

}  // namespace tmx::check
