#include "fault/fault.hpp"

#include <atomic>
#include <cstdint>
#include <memory>

#include "alloc/instrument.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"
#include "util/rng.hpp"

namespace tmx::fault {

// Per-thread, per-site decision state. Each (thread, site) pair owns an
// independent Bernoulli stream seeded from (plan seed, site, tid), advanced
// once per decision — a pure function of the decision index, so the
// injected schedule is identical for identical simulated schedules.
struct ThreadState {
  Rng streams[kNumSites] = {Rng{1}, Rng{2}, Rng{3}, Rng{4},
                            Rng{5}, Rng{6}, Rng{7}};
  std::uint64_t decisions[kNumSites] = {};
  std::uint64_t injected[kNumSites] = {};
  bool shielded = false;
};

struct State {
  explicit State(const FaultPlan& p) : plan(p) {
    for (int t = 0; t < kMaxThreads; ++t) {
      for (int s = 0; s < kNumSites; ++s) {
        threads[t]->streams[s].reseed(
            thread_seed(plan.seed + 0x517e0000ull * (s + 1), t));
      }
    }
  }

  FaultPlan plan;
  Padded<ThreadState> threads[kMaxThreads];
  // Site budgets are global across threads. The counters are atomic so a
  // budget holds under EngineKind::Threads too, where fault runs are not
  // deterministic anyway.
  std::atomic<std::uint64_t> budget_used[kNumSites] = {};
};

namespace {

State& state() { return *sim::context().fault; }

ThreadState& self() { return *state().threads[sim::self_tid()]; }

std::uint64_t site_budget(const FaultPlan& plan, Site s) {
  switch (s) {
    case Site::kMalloc:
      return plan.oom_budget;
    case Site::kDelayFree:
      return plan.delay_free_budget;
    case Site::kCorruptTag:
    case Site::kCorruptOverflow:
    case Site::kCorruptReuse:
      return plan.corrupt_budget;  // one budget across all three sites
    default:
      return UINT64_MAX;
  }
}

// Draws the next decision for (calling thread, site) against `rate`.
bool decide(Site s, double rate) {
  const int si = static_cast<int>(s);
  State& st = state();
  ThreadState& ts = *st.threads[sim::self_tid()];
  ++ts.decisions[si];
  if (ts.shielded) return false;
  if (rate <= 0.0) return false;
  if (!ts.streams[si].chance(rate)) return false;
  // Budget check last, so the stream advances identically whether or not
  // earlier injections exhausted the budget. The three corruption sites
  // share one budget, so they also share one used-counter slot.
  const std::uint64_t budget = site_budget(st.plan, s);
  const int bi = s >= Site::kCorruptTag ? static_cast<int>(Site::kCorruptTag)
                                        : si;
  if (budget != UINT64_MAX) {
    std::uint64_t used = st.budget_used[bi].load(std::memory_order_relaxed);
    do {
      if (used >= budget) return false;
    } while (!st.budget_used[bi].compare_exchange_weak(
        used, used + 1, std::memory_order_relaxed));
  }
  ++ts.injected[si];
  return true;
}

}  // namespace

const char* site_name(Site s) {
  static const char* names[kNumSites] = {
      "oom",         "reserve",          "spurious",      "delay_free",
      "corrupt_tag", "corrupt_overflow", "corrupt_reuse"};
  return names[static_cast<int>(s)];
}

void open(sim::RunContext& ctx, const FaultPlan& plan) {
  ctx.fault = std::make_shared<State>(plan);
}

const FaultPlan& plan() { return state().plan; }

bool should_fail_alloc() {
  if (!plan().oom_everywhere &&
      alloc::current_region() != alloc::Region::Tx) {
    return false;
  }
  return decide(Site::kMalloc, plan().oom_rate);
}

bool should_fail_reserve(std::size_t request, std::size_t reserved_so_far) {
  // The byte cap models total OS exhaustion: deterministic, rate-free.
  const std::size_t cap = plan().reserve_cap_bytes;
  if (cap != 0 && reserved_so_far + request > cap && !self().shielded) {
    ++self().injected[static_cast<int>(Site::kReserve)];
    return true;
  }
  return decide(Site::kReserve, plan().reserve_rate);
}

bool should_inject_abort() {
  return decide(Site::kSpurious, plan().spurious_abort_rate);
}

bool should_delay_free() {
  return decide(Site::kDelayFree, plan().delay_free_rate);
}

bool should_corrupt_tag() {
  return decide(Site::kCorruptTag, plan().corrupt_tag_rate);
}

bool should_corrupt_overflow() {
  return decide(Site::kCorruptOverflow, plan().corrupt_overflow_rate);
}

bool should_corrupt_reuse() {
  return decide(Site::kCorruptReuse, plan().corrupt_reuse_rate);
}

void set_shield(int tid, bool on) {
  if (enabled()) state().threads[tid]->shielded = on;
}

FaultStats stats() {
  FaultStats out;
  if (!enabled()) return out;
  for (const Padded<ThreadState>& t : state().threads) {
    for (int s = 0; s < kNumSites; ++s) {
      out.decisions[s] += t->decisions[s];
      out.injected[s] += t->injected[s];
    }
  }
  return out;
}

void publish_metrics(const FaultStats& st, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  for (int s = 0; s < kNumSites; ++s) {
    if (st.decisions[s] == 0 && st.injected[s] == 0) continue;
    const std::string site = site_name(static_cast<Site>(s));
    reg.set_counter(prefix + site + ".decisions", st.decisions[s]);
    reg.set_counter(prefix + site + ".injected", st.injected[s]);
  }
}

}  // namespace tmx::fault
