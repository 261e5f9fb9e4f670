#include "obs/attribution.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sim/address_space.hpp"
#include "util/macros.hpp"

namespace tmx::obs {

namespace {

// Last known acquisition of a stripe by one thread.
struct Owner {
  std::uint32_t tid = 0;
  std::uint64_t addr = 0;
  std::uint64_t ts = 0;
  bool live = false;  // acquired and not yet released
};

// The acquisition the aborter collided with: prefer a still-held (live)
// acquisition by another thread at or before the abort timestamp; virtual
// per-fiber clocks can skew a few cycles, so a live acquisition slightly in
// the future is accepted before falling back to the most recent released
// one (commit may release before the aborter's rollback gets stamped).
const Owner* pick_owner(const std::vector<Owner>& owners, std::uint32_t tid,
                        std::uint64_t abort_ts) {
  const Owner* best_live_past = nullptr;
  const Owner* best_live_any = nullptr;
  const Owner* best_dead_past = nullptr;
  for (const Owner& o : owners) {
    if (o.tid == tid) continue;
    if (o.live) {
      if (o.ts <= abort_ts &&
          (best_live_past == nullptr || o.ts > best_live_past->ts)) {
        best_live_past = &o;
      }
      if (best_live_any == nullptr || o.ts < best_live_any->ts) {
        best_live_any = &o;
      }
    } else if (o.ts <= abort_ts &&
               (best_dead_past == nullptr || o.ts > best_dead_past->ts)) {
      best_dead_past = &o;
    }
  }
  if (best_live_past != nullptr) return best_live_past;
  if (best_live_any != nullptr) return best_live_any;
  return best_dead_past;
}

std::uint64_t word_of(std::uint64_t addr) { return round_down(addr, 8); }

// `addr`'s offset in its run's address space, whose base is aligned to the
// space's size: the same in every process.
std::uint64_t offset_of(std::uint64_t addr) {
  return addr & (sim::AddressSpace::kBytes - 1);
}

}  // namespace

AttributionReport attribute_aborts(const std::vector<Event>& events,
                                   std::size_t top_k) {
  AttributionReport report;
  // stripe -> one Owner slot per acquiring thread (small vectors: a stripe
  // is contended by a handful of threads at most).
  std::unordered_map<std::uint64_t, std::vector<Owner>> owners;
  std::unordered_map<std::uint64_t, StripeAttribution> stripes;

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kStripeAcquire: {
        auto& v = owners[e.b];
        Owner* slot = nullptr;
        for (Owner& o : v) {
          if (o.tid == e.tid) slot = &o;
        }
        if (slot == nullptr) {
          v.push_back(Owner{});
          slot = &v.back();
          slot->tid = e.tid;
        }
        slot->addr = e.a;
        slot->ts = e.ts;
        slot->live = true;
        break;
      }
      case EventKind::kStripeRelease: {
        auto it = owners.find(e.b);
        if (it == owners.end()) break;
        for (Owner& o : it->second) {
          if (o.tid == e.tid) o.live = false;
        }
        break;
      }
      case EventKind::kTxAbort: {
        ++report.total_aborts;
        if (e.a == 0) {
          ++report.unattributed;
          break;
        }
        StripeAttribution& s = stripes[e.b];
        s.stripe = e.b;
        ++s.aborts;
        const auto it = owners.find(e.b);
        const Owner* owner =
            it == owners.end() ? nullptr
                               : pick_owner(it->second, e.tid, e.ts);
        if (owner == nullptr) {
          ++report.unattributed;
          ++s.unattributed;
          break;
        }
        const bool same_word = word_of(owner->addr) == word_of(e.a);
        if (same_word) {
          ++report.true_conflicts;
          ++s.true_conflicts;
        } else {
          ++report.false_aborts;
          ++s.false_aborts;
        }
        if (s.sample_aborter_addr == 0) {
          s.sample_aborter_addr = e.a;
          s.sample_owner_addr = owner->addr;
        }
        break;
      }
      default:
        break;
    }
  }

  report.top.reserve(stripes.size());
  for (const auto& [stripe, s] : stripes) report.top.push_back(s);
  std::sort(report.top.begin(), report.top.end(),
            [](const StripeAttribution& x, const StripeAttribution& y) {
              if (x.aborts != y.aborts) return x.aborts > y.aborts;
              return x.stripe < y.stripe;  // deterministic tie-break
            });
  if (report.top.size() > top_k) report.top.resize(top_k);
  return report;
}

void print_report(const AttributionReport& report, std::FILE* out) {
  std::fprintf(out,
               "abort attribution: %llu aborts | %llu true conflicts | "
               "%llu false aborts | %llu unattributed",
               static_cast<unsigned long long>(report.total_aborts),
               static_cast<unsigned long long>(report.true_conflicts),
               static_cast<unsigned long long>(report.false_aborts),
               static_cast<unsigned long long>(report.unattributed));
  if (report.true_conflicts + report.false_aborts > 0) {
    std::fprintf(out, " (%.1f%% of attributed aborts are false)",
                 100.0 * report.false_abort_ratio());
  }
  std::fprintf(out, "\n");
  if (report.top.empty()) return;
  std::fprintf(out,
               "  %-12s %8s %8s %8s   %s\n", "ORT stripe", "aborts", "true",
               "false", "evidence (aborter addr vs owner addr)");
  for (const StripeAttribution& s : report.top) {
    std::fprintf(
        out, "  %-12llu %8llu %8llu %8llu   +0x%llx vs +0x%llx%s\n",
        static_cast<unsigned long long>(s.stripe),
        static_cast<unsigned long long>(s.aborts),
        static_cast<unsigned long long>(s.true_conflicts),
        static_cast<unsigned long long>(s.false_aborts),
        static_cast<unsigned long long>(offset_of(s.sample_aborter_addr)),
        static_cast<unsigned long long>(offset_of(s.sample_owner_addr)),
        s.false_aborts > 0 ? "  <- distinct words share this stripe" : "");
  }
}

void publish_metrics(const AttributionReport& report, MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "total_aborts", report.total_aborts);
  reg.set_counter(prefix + "true_conflicts", report.true_conflicts);
  reg.set_counter(prefix + "false_aborts", report.false_aborts);
  reg.set_counter(prefix + "unattributed", report.unattributed);
  reg.set_gauge(prefix + "false_abort_ratio", report.false_abort_ratio());
}

}  // namespace tmx::obs
