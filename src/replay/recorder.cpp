#include "replay/recorder.hpp"

#include <algorithm>

#include "util/macros.hpp"

namespace tmx::replay {

namespace {

// A drained event plus the phase/rebased-cycle assignment build() computes.
struct Placed {
  std::uint64_t cycle;
  std::uint32_t tid;
  obs::Event ev;
  bool parallel;
};

// Event kinds that become trace records; scheduler/cache internals and run
// markers are capture bookkeeping, not workload operations.
bool is_workload_event(obs::EventKind k) {
  switch (k) {
    case obs::EventKind::kAlloc:
    case obs::EventKind::kFree:
    case obs::EventKind::kTxBegin:
    case obs::EventKind::kTxCommit:
    case obs::EventKind::kTxAbort:
      return true;
    default:
      return false;
  }
}

TraceRecord to_record(const Placed& p) {
  TraceRecord r;
  r.cycle = p.cycle;
  r.tid = p.tid;
  r.parallel = p.parallel;
  switch (p.ev.kind) {
    case obs::EventKind::kAlloc:
      r.kind = OpKind::kMalloc;
      r.addr = p.ev.a;
      r.size = p.ev.b;
      r.aux = p.ev.arg0;
      break;
    case obs::EventKind::kFree:
      r.kind = OpKind::kFree;
      r.addr = p.ev.a;
      r.aux = p.ev.arg0;
      break;
    case obs::EventKind::kTxBegin:
      r.kind = OpKind::kTxBegin;
      break;
    case obs::EventKind::kTxCommit:
      r.kind = OpKind::kTxCommit;
      r.size = p.ev.a;   // reads
      r.size2 = p.ev.b;  // writes
      break;
    default:
      r.kind = OpKind::kTxAbort;
      r.aux = p.ev.arg0;
      break;
  }
  return r;
}

// Merge one simulated run's events from every thread by (cycle, tid) — the
// scheduler's own (virtual time, fiber id) tie-break — then rebase onto the
// global cycle axis.
void emit_run(std::vector<Placed>* run, std::uint64_t base,
              std::vector<Placed>* out) {
  std::stable_sort(run->begin(), run->end(),
                   [](const Placed& x, const Placed& y) {
                     if (x.ev.ts != y.ev.ts) return x.ev.ts < y.ev.ts;
                     return x.tid < y.tid;
                   });
  for (Placed& p : *run) {
    p.cycle = base + p.ev.ts;
    p.parallel = true;
    out->push_back(p);
  }
  run->clear();
}

}  // namespace

void Recorder::drain(const obs::Tracer& tracer) {
  if (streams_.empty()) {
    streams_.resize(kMaxThreads);
    drops_.resize(kMaxThreads, 0);
  }
  for (int t = 0; t < kMaxThreads; ++t) {
    std::vector<obs::Event> ev = tracer.thread_events(t);
    streams_[t].insert(streams_[t].end(), ev.begin(), ev.end());
    drops_[t] += tracer.dropped_by_thread(t);
  }
}

std::uint64_t Recorder::dropped() const {
  std::uint64_t n = 0;
  for (std::uint64_t d : drops_) n += d;
  return n;
}

Trace Recorder::build() const {
  Trace t;
  t.meta = meta;

  std::uint32_t max_tid = 0;
  for (std::uint32_t i = 0; i < streams_.size(); ++i) {
    if (!streams_[i].empty() || drops_[i] != 0) max_tid = i;
  }
  t.meta.threads = max_tid + 1;
  t.meta.dropped = dropped();

  // Ring truncation first: one gap marker per losing thread, at the front
  // so tools can reject gappy input before replaying anything.
  for (std::uint32_t i = 0; i < drops_.size(); ++i) {
    if (drops_[i] == 0) continue;
    TraceRecord g;
    g.kind = OpKind::kGap;
    g.tid = i;
    g.size = drops_[i];
    t.records.push_back(g);
  }

  if (streams_.empty()) return t;

  // Run boundaries live in thread 0's stream: the sim engine plants
  // kRunBegin at ts == 0 and kRunEnd at ts == makespan around each run.
  // (The Threads engine stamps its markers in wall time, so a ts == 0
  // begin identifies a simulated capture.)
  struct RunInfo {
    std::uint64_t makespan = 0;
    std::uint64_t thread_count = 0;
  };
  std::vector<RunInfo> runs;
  bool sim_capture = false;
  {
    bool in_run = false;
    for (const obs::Event& e : streams_[0]) {
      if (e.kind == obs::EventKind::kRunBegin && e.ts == 0) {
        sim_capture = true;
        in_run = true;
        runs.push_back({0, e.a});
      } else if (in_run && e.kind == obs::EventKind::kRunEnd) {
        runs.back().makespan = e.ts;
        in_run = false;
      }
    }
    // A capture cut off mid-run (drained before kRunEnd) keeps its partial
    // run; bound it by the largest timestamp seen anywhere.
    if (in_run) {
      std::uint64_t hi = 0;
      for (const auto& s : streams_) {
        for (const obs::Event& e : s) hi = std::max(hi, e.ts);
      }
      runs.back().makespan = hi;
    }
  }

  std::vector<Placed> placed;

  if (!sim_capture) {
    // Wall-clock capture (Threads engine or no engine): one timestamp
    // domain, so a plain (ts, tid) merge is already the observed order.
    // Everything replays as one parallel phase rebased to cycle 0.
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
      for (const obs::Event& e : streams_[tid]) {
        if (is_workload_event(e.kind)) placed.push_back({0, tid, e, true});
      }
    }
    std::stable_sort(placed.begin(), placed.end(),
                     [](const Placed& x, const Placed& y) {
                       if (x.ev.ts != y.ev.ts) return x.ev.ts < y.ev.ts;
                       return x.tid < y.tid;
                     });
    std::uint64_t lo = placed.empty() ? 0 : placed.front().ev.ts;
    for (Placed& p : placed) p.cycle = p.ev.ts - lo;
  } else {
    // Segment every stream into per-run spans. Thread 0 carries the
    // markers; a worker's span for run k is delimited by its fiber clock
    // resetting to a smaller value (each run starts at cycle 0) or
    // exceeding the run's makespan, and workers skip runs that used fewer
    // threads than their tid.
    std::vector<std::vector<Placed>> span(
        runs.size());  // span[k] = run k's events from every thread
    std::vector<std::vector<Placed>> seq_span(runs.size() + 1);

    // Thread 0: marker-delimited.
    {
      std::size_t k = 0;  // next run index
      bool in_run = false;
      for (const obs::Event& e : streams_[0]) {
        if (e.kind == obs::EventKind::kRunBegin && e.ts == 0) {
          in_run = true;
          continue;
        }
        if (in_run && e.kind == obs::EventKind::kRunEnd) {
          in_run = false;
          ++k;
          continue;
        }
        if (!is_workload_event(e.kind)) continue;
        if (in_run && k < runs.size()) {
          span[k].push_back({0, 0, e, true});
        } else {
          seq_span[std::min(k, runs.size())].push_back({0, 0, e, false});
        }
      }
    }

    // Workers: clock-reset / makespan-bound segmentation.
    auto next_participating = [&](std::uint32_t tid, std::size_t from) {
      std::size_t k = from;
      while (k < runs.size() && tid >= runs[k].thread_count) ++k;
      return k;
    };
    for (std::uint32_t tid = 1; tid <= max_tid; ++tid) {
      std::size_t k = next_participating(tid, 0);
      std::uint64_t prev_ts = 0;
      for (const obs::Event& e : streams_[tid]) {
        if (!is_workload_event(e.kind)) continue;
        if (k < runs.size() &&
            (e.ts < prev_ts || e.ts > runs[k].makespan)) {
          k = next_participating(tid, k + 1);
          prev_ts = 0;
        }
        if (k >= runs.size()) break;  // events past the last run: dropped
        span[k].push_back({0, tid, e, true});
        prev_ts = e.ts;
      }
    }

    // Emit: seq span, run, seq span, run, ..., trailing seq span. Each
    // run gets its own base; +1 keeps a post-run sequential event strictly
    // ordered even against an operation at exactly the makespan cycle.
    std::uint64_t base = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      for (Placed& p : seq_span[k]) {
        p.cycle = base;
        placed.push_back(p);
      }
      emit_run(&span[k], base, &placed);
      base += runs[k].makespan + 1;
    }
    for (Placed& p : seq_span[runs.size()]) {
      p.cycle = base;
      placed.push_back(p);
    }
  }

  t.records.reserve(t.records.size() + placed.size());
  for (const Placed& p : placed) t.records.push_back(to_record(p));
  return t;
}

}  // namespace tmx::replay
