// tmx::guard plumbing: opening on a run context, finding bookkeeping, site
// scopes, the hard-cap trip. The heavy lifting (tables, canaries, quarantine) lives in
// guard_alloc.cpp.

#include "guard/guard.hpp"

#include <cinttypes>
#include <memory>

#include "obs/metrics.hpp"
#include "sim/address_space.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::guard {

namespace detail {

struct State {
  GuardConfig cfg;
  const char* scoped_site[kMaxThreads] = {};
  Summary found;
};

namespace {

State* state() { return sim::context().guard.get(); }

}  // namespace

const char* site_or(int tid, const char* fallback) {
  State* s = state();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads &&
      s->scoped_site[tid] != nullptr) {
    return s->scoped_site[tid];
  }
  return fallback != nullptr ? fallback : "?";
}

GuardStats* stats_mut() {
  State* s = state();
  return s != nullptr ? &s->found.stats : nullptr;
}

void emit(Finding f) {
  State* s = state();
  if (s == nullptr) return;
  ++s->found.counts[static_cast<int>(f.kind)];
  // One stored finding per (kind, detection site, alloc site): a corrupting
  // loop floods the counters, not the finding list.
  bool dup = false;
  for (const Finding& prev : s->found.findings) {
    if (prev.kind == f.kind && prev.site == f.site &&
        prev.alloc_site == f.alloc_site) {
      dup = true;
      break;
    }
  }
  if (!dup && s->found.findings.size() < s->cfg.max_findings) {
    s->found.findings.push_back(std::move(f));
  }
  const std::uint64_t total = s->found.corruptions();
  if (s->cfg.hard_cap != 0 && total >= s->cfg.hard_cap) {
    std::fprintf(stderr,
                 "tmx::guard: hard corruption cap reached (%" PRIu64
                 " findings, cap %" PRIu64 ")\n",
                 total, s->cfg.hard_cap);
    print_findings(s->found, stderr);
    sim::exit_flushed(kExitCode);
  }
}

}  // namespace detail

using detail::state;

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::kCanarySmash: return "canary_smash";
    case FindingKind::kTagSmash: return "tag_smash";
    case FindingKind::kPoisonWrite: return "poison_write";
    case FindingKind::kDoubleFree: return "double_free";
    case FindingKind::kInvalidFree: return "invalid_free";
  }
  return "?";
}

std::uint64_t Summary::corruptions() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

void open(sim::RunContext& ctx, const GuardConfig& cfg) {
  ctx.guard = std::make_shared<detail::State>();
  ctx.guard->cfg = cfg;
}

const GuardConfig& config() {
  static const GuardConfig kOff{};
  detail::State* s = state();
  return s != nullptr ? s->cfg : kOff;
}

const Summary& summary() {
  static const Summary kEmpty;
  detail::State* s = state();
  return s != nullptr ? s->found : kEmpty;
}

void print_findings(const Summary& s, std::FILE* out) {
  std::fprintf(out, "tmx::guard: %" PRIu64 " corruption finding(s), %zu "
                    "distinct:\n",
               s.corruptions(), s.findings.size());
  for (const Finding& f : s.findings) {
    std::fprintf(out,
                 "  [%s] tid=%d cycle=%" PRIu64 " addr=+0x%" PRIxPTR
                 " requested=%zu usable=%zu alloc_site=%s site=%s",
                 finding_kind_name(f.kind), f.tid, f.cycle,
                 sim::AddressSpace::offset_of(f.addr),
                 f.requested, f.usable,
                 f.alloc_site.empty() ? "?" : f.alloc_site.c_str(),
                 f.site.empty() ? "?" : f.site.c_str());
    if (!f.detail.empty()) std::fprintf(out, " — %s", f.detail.c_str());
    std::fputc('\n', out);
  }
}

void publish_metrics(const Summary& s, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "canary_smashes",
                  s.count(FindingKind::kCanarySmash));
  reg.set_counter(prefix + "tag_smashes", s.count(FindingKind::kTagSmash));
  reg.set_counter(prefix + "poison_writes",
                  s.count(FindingKind::kPoisonWrite));
  reg.set_counter(prefix + "double_frees", s.count(FindingKind::kDoubleFree));
  reg.set_counter(prefix + "invalid_frees",
                  s.count(FindingKind::kInvalidFree));
  reg.set_counter(prefix + "findings", s.corruptions());
  const GuardStats& st = s.stats;
  reg.set_counter(prefix + "blocks_guarded", st.blocks_guarded);
  reg.set_counter(prefix + "canaries_placed", st.canaries_placed);
  reg.set_counter(prefix + "frees_verified", st.frees_verified);
  reg.set_counter(prefix + "quarantined", st.quarantined);
  reg.set_counter(prefix + "quarantined_bytes", st.quarantined_bytes);
  reg.set_counter(prefix + "released", st.released);
  reg.set_counter(prefix + "leaked", st.leaked);
  reg.set_counter(prefix + "audits", st.audits);
  reg.set_counter(prefix + "audit_blocks", st.audit_blocks);
  reg.set_counter(prefix + "epochs", st.epochs);
}

const char* current_site() { return detail::site_or(sim::self_tid(), "?"); }

ScopedSite::ScopedSite(const char* site) {
  detail::State* s = state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    saved_ = s->scoped_site[tid];
    s->scoped_site[tid] = site;
  } else {
    saved_ = nullptr;
  }
}

ScopedSite::~ScopedSite() {
  detail::State* s = state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    s->scoped_site[tid] = saved_;
  }
}

}  // namespace tmx::guard
