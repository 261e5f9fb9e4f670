#include "prof/prof.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace tmx::prof {

namespace {

constexpr int kMaxSiteDepth = 16;
constexpr std::size_t kPageSize = 4096;

struct TxState {
  std::uint64_t first_begin = 0;  // survives retries: commit latency spans them
  std::uint64_t abort_cycle = 0;
  bool retry_pending = false;
};

struct EpochCell {
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t free_bytes = 0;
  std::uint64_t cross_thread_frees = 0;
};

struct SiteStats {
  std::string path;  // folded: "request;parse;node"
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::vector<EpochCell> epochs;

  EpochCell& epoch(std::uint32_t e) {
    if (epochs.size() <= e) epochs.resize(e + 1);
    return epochs[e];
  }
};

struct Block {
  std::uint32_t site = 0;
  std::uint32_t epoch = 0;
  int tid = 0;
  std::uint64_t bytes = 0;
};

struct SiteStack {
  std::uint32_t ids[kMaxSiteDepth] = {};
  int depth = 0;

  std::uint32_t top() const { return depth == 0 ? 0 : ids[depth - 1]; }
};

struct Sample {
  std::uint64_t cycles = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t reserved_bytes = 0;
  double frag = 0.0;  // reserved/live; 0 when nothing is live
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
};

}  // namespace

namespace detail {

// All mutable profiler state of one run. Heap-allocated when the plane
// opens, so an idle run carries one null pointer; every member lives on the
// host heap and is mutated without ever touching virtual time.
struct State {
  ProfConfig cfg;

  HdrHistogram hist[kNumOps];
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t cross_thread_frees = 0;

  TxState tx[kMaxThreads];
  SiteStack stacks[kMaxThreads];

  // Guards sites/blocks/samples. Under the Sim engine fibers share one host
  // thread, so the lock is uncontended and acquisition order — hence all
  // exported data — is deterministic.
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> site_ids;
  std::vector<SiteStats> sites;
  std::unordered_map<const void*, Block> blocks;
  std::vector<Sample> samples;
  std::uint64_t samples_dropped = 0;
  std::uint64_t next_sample_due = 0;
  std::uint32_t epoch = 0;
};

}  // namespace detail

namespace {

using detail::State;

State* state() { return sim::context().prof.get(); }

std::uint32_t intern_site_locked(State& s, const std::string& path) {
  const auto it = s.site_ids.find(path);
  if (it != s.site_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.sites.size());
  s.site_ids.emplace(path, id);
  SiteStats st;
  st.path = path;
  s.sites.push_back(std::move(st));
  return id;
}

void snapshot_locked(State& s, std::uint64_t now) {
  if (s.samples.size() >= s.cfg.max_samples) {
    ++s.samples_dropped;
    return;
  }
  Sample row;
  row.cycles = now;
  if (s.cfg.allocator != nullptr) {
    row.live_bytes = s.cfg.allocator->live_bytes();
    row.reserved_bytes = s.cfg.allocator->os_reserved();
  }
  row.frag = row.live_bytes == 0
                 ? 0.0
                 : static_cast<double>(row.reserved_bytes) /
                       static_cast<double>(row.live_bytes);
  row.commits = s.commits;
  row.aborts = s.aborts;
  row.mallocs = s.mallocs;
  row.frees = s.frees;
  s.samples.push_back(row);
}

void maybe_sample(State& s, std::uint64_t now) {
  if (s.cfg.sample_cycles == 0 || now < s.next_sample_due) return;
  std::lock_guard<std::mutex> g(s.mu);
  if (now < s.next_sample_due) return;
  snapshot_locked(s, now);
  s.next_sample_due =
      (now / s.cfg.sample_cycles + 1) * s.cfg.sample_cycles;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kMalloc: return "malloc";
    case Op::kFree: return "free";
    case Op::kTxCommit: return "tx_commit";
    case Op::kTxAbortToRetry: return "tx_abort_retry";
  }
  return "?";
}

void open(sim::RunContext& ctx, const ProfConfig& cfg) {
  ctx.prof = std::make_shared<State>();
  State& s = *ctx.prof;
  s.cfg = cfg;
  s.next_sample_due = cfg.sample_cycles;
  // Site 0 catches allocations made outside any ScopedSite.
  std::lock_guard<std::mutex> g(s.mu);
  intern_site_locked(s, "(root)");
}

// ---- Site labels ----

ScopedSite::ScopedSite(const char* label) : pushed_(false) {
  if (!enabled()) return;
  State& s = *state();
  SiteStack& st = s.stacks[sim::self_tid()];
  if (st.depth >= kMaxSiteDepth) return;  // deeper frames fold into the top
  std::string path;
  {
    std::lock_guard<std::mutex> g(s.mu);
    if (st.depth == 0) {
      path = label;
    } else {
      path = s.sites[st.top()].path + ";" + label;
    }
    st.ids[st.depth++] = intern_site_locked(s, path);
  }
  pushed_ = true;
}

ScopedSite::~ScopedSite() {
  if (!pushed_ || !enabled()) return;
  SiteStack& st = state()->stacks[sim::self_tid()];
  if (st.depth > 0) --st.depth;
}

void advance_epoch() {
  State* s = state();
  if (s == nullptr) return;
  std::lock_guard<std::mutex> g(s->mu);
  ++s->epoch;
}

std::uint32_t current_epoch() {
  const State* s = state();
  return s == nullptr ? 0 : s->epoch;
}

// ---- Hooks ----

void on_alloc(void* p, std::size_t usable, std::uint64_t latency) {
  State& s = *state();
  s.hist[static_cast<int>(Op::kMalloc)].record(latency);
  ++s.mallocs;
  const std::uint64_t now = sim::now_cycles();
  if (p != nullptr) {
    const int tid = sim::self_tid();
    std::lock_guard<std::mutex> g(s.mu);
    const std::uint32_t site = s.stacks[tid].top();
    EpochCell& cell = s.sites[site].epoch(s.epoch);
    ++cell.allocs;
    cell.alloc_bytes += usable;
    SiteStats& st = s.sites[site];
    st.live_bytes += usable;
    if (st.live_bytes > st.peak_bytes) st.peak_bytes = st.live_bytes;
    s.blocks[p] = Block{site, s.epoch, tid, usable};
  }
  maybe_sample(s, now);
}

void on_free(void* p, std::uint64_t latency) {
  State& s = *state();
  s.hist[static_cast<int>(Op::kFree)].record(latency);
  ++s.frees;
  const std::uint64_t now = sim::now_cycles();
  if (p != nullptr) {
    const int tid = sim::self_tid();
    std::lock_guard<std::mutex> g(s.mu);
    const auto it = s.blocks.find(p);
    if (it != s.blocks.end()) {
      const Block b = it->second;
      s.blocks.erase(it);
      SiteStats& st = s.sites[b.site];
      st.live_bytes -= b.bytes;
      EpochCell& cell = st.epoch(s.epoch);
      ++cell.frees;
      cell.free_bytes += b.bytes;
      if (b.tid != tid) {
        ++cell.cross_thread_frees;
        ++s.cross_thread_frees;
      }
    }
  }
  maybe_sample(s, now);
}

void on_tx_begin(int tid) {
  State& s = *state();
  TxState& t = s.tx[tid];
  const std::uint64_t now = sim::now_cycles();
  if (t.retry_pending) {
    s.hist[static_cast<int>(Op::kTxAbortToRetry)].record(now - t.abort_cycle);
    t.retry_pending = false;  // first_begin kept: commit spans the retries
  } else {
    t.first_begin = now;
  }
}

void on_tx_commit(int tid) {
  State& s = *state();
  TxState& t = s.tx[tid];
  const std::uint64_t now = sim::now_cycles();
  s.hist[static_cast<int>(Op::kTxCommit)].record(now - t.first_begin);
  t.retry_pending = false;
  ++s.commits;
  maybe_sample(s, now);
}

void on_tx_abort(int tid) {
  State& s = *state();
  TxState& t = s.tx[tid];
  const std::uint64_t now = sim::now_cycles();
  t.abort_cycle = now;
  t.retry_pending = true;
  ++s.aborts;
  maybe_sample(s, now);
}

void sample_now() { sample_at(sim::now_cycles()); }

void sample_at(std::uint64_t cycles) {
  State* s = state();
  if (s == nullptr) return;
  std::lock_guard<std::mutex> g(s->mu);
  snapshot_locked(*s, cycles);
}

// ---- Export ----

void publish_metrics(const Profile& p, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  for (int i = 0; i < kNumOps; ++i) {
    const HdrHistogram& h = p.latency[i];
    const std::string base = prefix + "lat." + op_name(static_cast<Op>(i));
    // Integer counters throughout: percentiles are bucket lower bounds in
    // whole cycles, so the metrics JSON is byte-stable across runs.
    reg.set_counter(base + ".p50", h.percentile(50.0));
    reg.set_counter(base + ".p95", h.percentile(95.0));
    reg.set_counter(base + ".p99", h.percentile(99.0));
    reg.set_counter(base + ".p999", h.percentile(99.9));
    reg.set_counter(base + ".max", h.max());
    reg.set_counter(base + ".count", h.count());
    reg.set_counter(base + ".sum", h.sum());
  }
  reg.set_counter(prefix + "mallocs", p.mallocs);
  reg.set_counter(prefix + "frees", p.frees);
  reg.set_counter(prefix + "commits", p.commits);
  reg.set_counter(prefix + "aborts", p.aborts);
  reg.set_counter(prefix + "cross_thread_frees", p.cross_thread_frees);
  reg.set_counter(prefix + "sites", p.sites);
  reg.set_counter(prefix + "samples", p.samples);
  reg.set_counter(prefix + "samples_dropped", p.samples_dropped);
}

std::string timeseries_csv_header() {
  return "label,cycles,live_bytes,reserved_bytes,reserved_pages,frag,"
         "commits,aborts,mallocs,frees\n";
}

namespace {

void append_timeseries_csv(const State& s, std::string& out,
                           const std::string& label) {
  for (const Sample& r : s.samples) {
    out += label;
    out += ',';
    append_u64(out, r.cycles);
    out += ',';
    append_u64(out, r.live_bytes);
    out += ',';
    append_u64(out, r.reserved_bytes);
    out += ',';
    append_u64(out, (r.reserved_bytes + kPageSize - 1) / kPageSize);
    char frag[32];
    std::snprintf(frag, sizeof frag, ",%.6f,", r.frag);
    out += frag;
    append_u64(out, r.commits);
    out += ',';
    append_u64(out, r.aborts);
    out += ',';
    append_u64(out, r.mallocs);
    out += ',';
    append_u64(out, r.frees);
    out += '\n';
  }
}

void append_sites_csv(State& s, std::string& out, const std::string& label) {
  std::vector<const SiteStats*> sorted;
  {
    std::lock_guard<std::mutex> g(s.mu);
    sorted.reserve(s.sites.size());
    for (const SiteStats& st : s.sites) sorted.push_back(&st);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SiteStats* a, const SiteStats* b) {
              return a->path < b->path;
            });
  for (const SiteStats* st : sorted) {
    EpochCell total;
    for (std::size_t e = 0; e < st->epochs.size(); ++e) {
      const EpochCell& c = st->epochs[e];
      total.allocs += c.allocs;
      total.alloc_bytes += c.alloc_bytes;
      total.frees += c.frees;
      total.free_bytes += c.free_bytes;
      total.cross_thread_frees += c.cross_thread_frees;
      if (c.allocs == 0 && c.frees == 0) continue;
      out += label;
      out += ',';
      out += st->path;
      out += ',';
      append_u64(out, e);
      out += ',';
      append_u64(out, c.allocs);
      out += ',';
      append_u64(out, c.alloc_bytes);
      out += ',';
      append_u64(out, c.frees);
      out += ',';
      append_u64(out, c.free_bytes);
      out += ',';
      append_u64(out, c.cross_thread_frees);
      out += ",0,0\n";  // live/peak are site-level, on the "all" row
    }
    if (total.allocs == 0 && total.frees == 0 && st->live_bytes == 0) {
      continue;  // a label scope that never allocated
    }
    out += label;
    out += ',';
    out += st->path;
    out += ",all,";
    append_u64(out, total.allocs);
    out += ',';
    append_u64(out, total.alloc_bytes);
    out += ',';
    append_u64(out, total.frees);
    out += ',';
    append_u64(out, total.free_bytes);
    out += ',';
    append_u64(out, total.cross_thread_frees);
    out += ',';
    append_u64(out, st->live_bytes);
    out += ',';
    append_u64(out, st->peak_bytes);
    out += '\n';
  }
}

void append_folded(State& s, std::string& out) {
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  {
    std::lock_guard<std::mutex> g(s.mu);
    for (const SiteStats& st : s.sites) {
      std::uint64_t bytes = 0;
      for (const EpochCell& c : st.epochs) bytes += c.alloc_bytes;
      if (bytes != 0) rows.emplace_back(st.path, bytes);
    }
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [path, bytes] : rows) {
    out += path;
    out += ' ';
    append_u64(out, bytes);
    out += '\n';
  }
}

}  // namespace

std::string sites_csv_header() {
  return "label,site,epoch,allocs,alloc_bytes,frees,free_bytes,"
         "cross_thread_frees,live_bytes,peak_bytes\n";
}

Profile profile(const std::string& label) {
  Profile p;
  State* s = state();
  if (s == nullptr) return p;
  std::copy(std::begin(s->hist), std::end(s->hist), std::begin(p.latency));
  p.mallocs = s->mallocs;
  p.frees = s->frees;
  p.commits = s->commits;
  p.aborts = s->aborts;
  p.cross_thread_frees = s->cross_thread_frees;
  p.sites = s->sites.size();
  p.samples = s->samples.size();
  p.samples_dropped = s->samples_dropped;
  append_timeseries_csv(*s, p.timeseries_csv, label);
  append_sites_csv(*s, p.sites_csv, label);
  append_folded(*s, p.folded);
  return p;
}

}  // namespace tmx::prof
