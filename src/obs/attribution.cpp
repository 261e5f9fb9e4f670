#include "obs/attribution.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/address_space.hpp"

namespace tmx::obs {

namespace {

// `t`'s row for `stripe`, made on first use.
StripeAttribution& row(AbortTally& t, std::uint64_t stripe) {
  if (t.stripes == nullptr) {
    t.stripes = std::make_unique<
        std::unordered_map<std::uint64_t, StripeAttribution>>();
  }
  StripeAttribution& s = (*t.stripes)[stripe];
  s.stripe = stripe;
  return s;
}

}  // namespace

void AbortTally::count(Conflict kind, std::uint64_t addr,
                       std::uint64_t stripe, std::uint64_t owner_addr) {
  ++aborts;
  if (kind == Conflict::kTrue) ++true_conflicts;
  if (kind == Conflict::kFalse) ++false_aborts;
  if (addr == 0) return;
  StripeAttribution& s = row(*this, stripe);
  ++s.aborts;
  if (kind == Conflict::kUnclassified) {
    ++s.unattributed;
    return;
  }
  ++(kind == Conflict::kTrue ? s.true_conflicts : s.false_aborts);
  if (s.sample_aborter_addr == 0) {
    s.sample_aborter_addr = addr;
    s.sample_owner_addr = owner_addr;
  }
}

void AbortTally::add(const AbortTally& o) {
  aborts += o.aborts;
  true_conflicts += o.true_conflicts;
  false_aborts += o.false_aborts;
  if (o.stripes == nullptr) return;
  for (const auto& [stripe, x] : *o.stripes) {
    StripeAttribution& s = row(*this, stripe);
    s.aborts += x.aborts;
    s.true_conflicts += x.true_conflicts;
    s.false_aborts += x.false_aborts;
    s.unattributed += x.unattributed;
    if (s.sample_aborter_addr == 0) {
      s.sample_aborter_addr = x.sample_aborter_addr;
      s.sample_owner_addr = x.sample_owner_addr;
    }
  }
}

AttributionReport make_report(const AbortTally& tally, std::size_t top_k) {
  AttributionReport report;
  report.total_aborts = tally.aborts;
  report.true_conflicts = tally.true_conflicts;
  report.false_aborts = tally.false_aborts;
  report.unattributed =
      tally.aborts - tally.true_conflicts - tally.false_aborts;
  if (tally.stripes != nullptr) {
    for (const auto& [stripe, s] : *tally.stripes) report.top.push_back(s);
  }
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
        static_cast<unsigned long long>(
            sim::AddressSpace::offset_of(s.sample_aborter_addr)),
        static_cast<unsigned long long>(
            sim::AddressSpace::offset_of(s.sample_owner_addr)),
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
