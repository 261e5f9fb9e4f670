#include "replay/replayer.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "phase/phase.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::replay {

namespace {

// Post-hoc ORT-stripe bookkeeping over a stream of block births and
// deaths. Works on the recorded or replayed addresses in record order, so
// the result depends only on placement, never on the replay schedule.
class StripeTracker {
 public:
  StripeTracker(unsigned shift, unsigned ort_log2)
      : shift_(shift), mask_((1ull << ort_log2) - 1) {
    stats_.shift = shift;
    stats_.ort_log2 = ort_log2;
  }

  void insert(std::uint32_t tid, std::uint64_t addr, std::uint64_t size) {
    if (size == 0) size = 1;
    Block blk{tid, addr >> shift_, (addr + size - 1) >> shift_};
    ++stats_.blocks;
    bool cross = false;
    bool same = false;
    for (std::uint64_t s = blk.first; s <= blk.last; ++s) {
      const std::uint64_t stripe = s & mask_;
      auto it = live_.find(stripe);
      if (it != live_.end()) {
        bool stripe_cross = false;
        for (const auto& occ : it->second) {
          if (occ.second != tid) {
            cross = stripe_cross = true;
          } else {
            same = true;
          }
        }
        if (stripe_cross) bump_stripe(stripe);
      }
      live_[stripe].push_back({addr, tid});
    }
    if (cross) ++stats_.cross_thread_collisions;
    if (same) ++stats_.same_thread_collisions;
    blocks_[addr] = blk;
    ++live_blocks_;
    stats_.peak_live_blocks = std::max(stats_.peak_live_blocks, live_blocks_);
  }

  void erase(std::uint64_t addr) {
    auto it = blocks_.find(addr);
    if (it == blocks_.end()) return;
    const Block blk = it->second;
    blocks_.erase(it);
    --live_blocks_;
    for (std::uint64_t s = blk.first; s <= blk.last; ++s) {
      auto lit = live_.find(s & mask_);
      if (lit == live_.end()) continue;
      auto& occs = lit->second;
      for (std::size_t i = 0; i < occs.size(); ++i) {
        if (occs[i].first == addr) {
          occs.erase(occs.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      if (occs.empty()) live_.erase(lit);
    }
  }

  StripeStats stats() const { return stats_; }

 private:
  struct Block {
    std::uint32_t tid;
    std::uint64_t first, last;  // unmasked stripe index range
  };

  void bump_stripe(std::uint64_t stripe) {
    const std::uint64_t n = ++collisions_[stripe];
    if (n > stats_.hottest_stripe_collisions) {
      stats_.hottest_stripe_collisions = n;
      stats_.hottest_stripe = stripe;
    }
  }

  unsigned shift_;
  std::uint64_t mask_;
  std::uint64_t live_blocks_ = 0;
  StripeStats stats_;
  // stripe -> live (addr, tid) occupants; expected fan-out is tiny.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint32_t>>>
      live_;
  std::unordered_map<std::uint64_t, std::uint64_t> collisions_;
  std::unordered_map<std::uint64_t, Block> blocks_;
};

}  // namespace

// The decoder enforces the shape invariants for files; hand-built traces
// (tests, synth) go through the same gate.
std::string check_trace(const Trace& trace) {
  if (trace.meta.threads == 0) return "trace declares zero threads";
  if (trace.meta.threads > static_cast<std::uint32_t>(kMaxThreads)) {
    return "trace uses more threads than the simulator supports";
  }
  std::uint64_t prev = 0;
  for (const TraceRecord& r : trace.records) {
    if (r.cycle < prev) return "records are not cycle-sorted";
    prev = r.cycle;
    if (r.tid >= trace.meta.threads) return "record tid out of range";
  }
  return "";
}

ReplayResult replay_trace(const Trace& trace, alloc::Allocator& allocator,
                          const sim::RunConfig& run, unsigned shift,
                          unsigned ort_log2) {
  TMX_ASSERT(run.threads == static_cast<int>(trace.meta.threads));
  ReplayResult res;
  if (shift == 0) shift = trace.meta.shift;
  if (ort_log2 == 0) ort_log2 = trace.meta.ort_log2;

  const std::size_t n = trace.records.size();
  const std::vector<TraceRecord>& recs = trace.records;

  // Pre-compute free -> malloc matching from the record stream alone, so
  // the fiber loop shares no mutable lookup structures. A free's match is
  // always an earlier record, which is what makes the replay-side wait
  // below deadlock-free.
  std::vector<std::ptrdiff_t> match_of(n, -1);
  std::vector<bool> freed(n, false);
  {
    std::unordered_map<std::uint64_t, std::size_t> live;  // addr -> malloc idx
    for (std::size_t i = 0; i < n; ++i) {
      const TraceRecord& r = recs[i];
      switch (r.kind) {
        case OpKind::kMalloc:
          ++res.mallocs;
          res.bytes_requested += r.size;
          if (r.addr != 0) {
            live[r.addr] = i;
          } else {
            ++res.oom_records;  // capture-side OOM (injected or genuine)
          }
          break;
        case OpKind::kFree: {
          ++res.frees;
          auto it = live.find(r.addr);
          if (it == live.end()) {
            ++res.unmatched_frees;
          } else {
            match_of[i] = static_cast<std::ptrdiff_t>(it->second);
            freed[it->second] = true;
            live.erase(it);
          }
          break;
        }
        case OpKind::kTxBegin: ++res.tx_begins; break;
        case OpKind::kTxCommit: ++res.tx_commits; break;
        case OpKind::kTxAbort: ++res.tx_aborts; break;
      }
    }
    res.live_at_end = live.size();
  }

  // Replay state shared across fibers. The simulator runs every fiber on
  // one host thread and only switches at yield points, so plain vectors
  // are race-free here.
  std::vector<void*> replayed(n, nullptr);
  std::vector<std::uint8_t> done(n, 0);

  // Transaction-lifecycle replay (tmx::phase). The captured tx markers are
  // fed back to the allocator as hints so phase membership and quiescent
  // points reproduce under replay. Hints key on sim::self_tid(): in
  // parallel groups that is the record's own tid (records are partitioned
  // per tid), in sequential groups everything collapses onto worker 0 —
  // exactly where the allocations themselves land. in_tx keeps the hint
  // stream balanced even for a hand-built trace that lacks a begin or a
  // commit: an unmatched marker must not pin the minimum in-flight epoch
  // (that would silently stop phase reclamation for the rest of the run).
  auto* phase_alloc = alloc::find_layer<phase::PhaseAllocator>(&allocator);
  const bool tx_hints = allocator.wants_tx_hints();
  std::vector<std::uint8_t> in_tx(static_cast<std::size_t>(kMaxThreads), 0);

  // When the phase allocator compacts (force_quiesce between groups), it
  // moves live blocks. The replayer frees through its own address table, so
  // the listener re-points the table (and the addr -> record index used to
  // find the entry) at the new location; the post-hoc placement metrics
  // then measure the compacted layout.
  std::unordered_map<void*, std::size_t> live_idx;
  struct RelocCtx {
    std::vector<void*>* replayed;
    std::unordered_map<void*, std::size_t>* live;
  } reloc_ctx{&replayed, &live_idx};
  if (phase_alloc != nullptr) {
    phase_alloc->set_relocation_listener(
        [](void* from, void* to, std::size_t, void* ctx) {
          auto* c = static_cast<RelocCtx*>(ctx);
          auto it = c->live->find(from);
          if (it == c->live->end()) return;
          (*c->replayed)[it->second] = to;
          (*c->live)[to] = it->second;
          c->live->erase(it);
        },
        &reloc_ctx);
  }

  // Touching blocks feeds the cache model; with the model off a probe
  // degenerates to a flat time charge the capture never paid, which would
  // skew the replayed schedule — so touch only when there is a cache.
  const bool touch = run.cache_model;
  auto exec = [&](std::size_t idx) {
    const TraceRecord& r = recs[idx];
    switch (r.kind) {
      case OpKind::kMalloc: {
        // A capture-side OOM (addr == 0) replays as a null, not a fresh
        // allocation: the captured program never placed a block here, so
        // issuing one would shift every later placement off the capture.
        if (r.addr == 0) break;
        alloc::RegionScope rs(static_cast<alloc::Region>(
            r.aux < alloc::kNumRegions ? r.aux : 0));
        void* p = allocator.allocate(static_cast<std::size_t>(r.size));
        replayed[idx] = p;
        if (phase_alloc != nullptr && p != nullptr) live_idx[p] = idx;
        if (touch && p != nullptr) sim::probe(p, 8, true);
        break;
      }
      case OpKind::kFree: {
        const std::ptrdiff_t m = match_of[idx];
        if (m < 0) break;  // no live malloc in the trace: skip
        while (!done[static_cast<std::size_t>(m)]) {
          sim::tick(sim::Cost::kSpin);
          sim::yield();
        }
        void* p = replayed[static_cast<std::size_t>(m)];
        if (p == nullptr) break;
        if (touch) sim::probe(p, 8, true);
        alloc::RegionScope rs(static_cast<alloc::Region>(
            r.aux < alloc::kNumRegions ? r.aux : 0));
        allocator.deallocate(p);
        if (phase_alloc != nullptr) live_idx.erase(p);
        break;
      }
      case OpKind::kTxBegin: {
        const auto t = static_cast<std::size_t>(sim::self_tid());
        if (tx_hints && !in_tx[t]) {
          allocator.tx_begin_hint(static_cast<int>(t));
          in_tx[t] = 1;
        }
        break;
      }
      case OpKind::kTxCommit: {
        const auto t = static_cast<std::size_t>(sim::self_tid());
        if (tx_hints && in_tx[t]) {
          allocator.tx_commit_hint(static_cast<int>(t));
          in_tx[t] = 0;
        }
        break;
      }
      case OpKind::kTxAbort: {
        const auto t = static_cast<std::size_t>(sim::self_tid());
        if (tx_hints && in_tx[t]) {
          allocator.tx_abort_hint(static_cast<int>(t));
          in_tx[t] = 0;
        }
        break;
      }
    }
    done[idx] = 1;
  };

  // Execute maximal same-phase record groups in file order: sequential
  // groups inline on this thread (sim hooks are no-ops — matching how
  // they were captured), parallel groups under the simulator with one
  // fiber per recorded thread, each advancing to the record's cycle
  // before issuing it.
  std::size_t group = 0;
  while (group < n) {
    std::size_t end = group;
    const bool parallel = recs[group].parallel;
    while (end < n && recs[end].parallel == parallel) ++end;

    if (!parallel) {
      for (std::size_t i = group; i < end; ++i) exec(i);
    } else {
      std::vector<std::vector<std::size_t>> per_tid(trace.meta.threads);
      for (std::size_t i = group; i < end; ++i) {
        per_tid[recs[i].tid].push_back(i);
      }
      sim::RunResult rr = sim::run_parallel(run, [&](int tid) {
        for (std::size_t idx : per_tid[static_cast<std::size_t>(tid)]) {
          sim::advance_to(recs[idx].cycle);
          // advance_to only moves the clock; the yield makes the jump a
          // scheduling point, so every fiber whose next event is virtually
          // earlier (including one parked mid-critical-section inside the
          // allocator) runs first. Without it a fiber can leap over another
          // thread's in-progress malloc/free and observe its arena lock
          // held — contention the capture never had.
          sim::yield();
          exec(idx);
          sim::yield();
        }
      });
      res.cycles = std::max(res.cycles, rr.cycles);
      res.seconds += rr.seconds;
      res.cache.add(rr.cache);
    }
    // Group boundaries are provably quiescent — the parallel region has
    // joined (or never started) and no transaction hint is outstanding
    // mid-operation — so this is where the phase allocator reclaims retired
    // phases and, when configured, compacts stragglers. Mirrors the
    // captured program's barrier between phases.
    if (phase_alloc != nullptr) phase_alloc->force_quiesce();
    group = end;
  }

  // A trace that ends mid-transaction (truncated capture) leaves epoch
  // snapshots behind that would pin every later phase below them. Balance
  // the hint stream before the final accounting.
  if (tx_hints) {
    for (std::size_t t = 0; t < in_tx.size(); ++t) {
      if (in_tx[t]) {
        allocator.tx_abort_hint(static_cast<int>(t));
        in_tx[t] = 0;
      }
    }
    if (phase_alloc != nullptr) phase_alloc->force_quiesce();
  }

  // Placement metrics, post-hoc and in record order.
  StripeTracker tracker(shift, ort_log2);
  const sim::AddressSpace& space = sim::context().space;
  std::uint64_t fp = 14695981039346656037ull;  // FNV offset basis
  res.addresses.reserve(res.mallocs);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = recs[i];
    if (r.kind == OpKind::kMalloc) {
      const auto addr = reinterpret_cast<std::uint64_t>(replayed[i]);
      // Region offsets: independent of where the host maps the region.
      const std::uint64_t off = addr == 0 ? 0 : space.offset(addr);
      res.addresses.push_back(off);
      fp = fnv1a(&off, sizeof off, fp);
      if (addr != 0) tracker.insert(r.tid, addr, r.size);
    } else if (r.kind == OpKind::kFree && match_of[i] >= 0) {
      tracker.erase(reinterpret_cast<std::uint64_t>(
          replayed[static_cast<std::size_t>(match_of[i])]));
    }
  }
  res.address_fingerprint = fp;
  res.stripes = tracker.stats();
  if (const auto* ia =
          alloc::find_layer<alloc::InstrumentingAllocator>(&allocator)) {
    res.profile = ia->profile();
  }
  res.os_reserved = allocator.os_reserved();
  res.ok = true;
  return res;
}

StripeStats recorded_stripe_stats(const Trace& trace, unsigned shift,
                                  unsigned ort_log2) {
  if (shift == 0) shift = trace.meta.shift;
  if (ort_log2 == 0) ort_log2 = trace.meta.ort_log2;
  StripeTracker tracker(shift, ort_log2);
  for (const TraceRecord& r : trace.records) {
    if (r.kind == OpKind::kMalloc && r.addr != 0) {
      tracker.insert(r.tid, r.addr, r.size);
    } else if (r.kind == OpKind::kFree) {
      tracker.erase(r.addr);
    }
  }
  return tracker.stats();
}

void print_comparison(const Trace& trace,
                      const std::vector<ReplayResult>& results, FILE* out) {
  std::fprintf(out,
               "trace: %llu records, %llu mallocs, %u threads, capture "
               "allocator=%s, seed=%llu\n",
               static_cast<unsigned long long>(trace.records.size()),
               static_cast<unsigned long long>(trace.count(OpKind::kMalloc)),
               trace.meta.threads,
               trace.meta.allocator.empty() ? "-" : trace.meta.allocator.c_str(),
               static_cast<unsigned long long>(trace.meta.seed));
  std::fprintf(out, "%-10s %12s %12s %10s %10s %9s %12s %10s %18s\n",
               "allocator", "xthr-coll", "same-coll", "coll/blk", "peak-live",
               "l1-miss", "os-reserved", "Mcycles", "addr-fp");
  for (const ReplayResult& r : results) {
    if (!r.ok) {
      std::fprintf(out, "%-10s FAILED: %s\n", r.allocator.c_str(),
                   r.error.c_str());
      continue;
    }
    std::fprintf(out,
                 "%-10s %12llu %12llu %10.4f %10llu %8.2f%% %12llu %10.1f "
                 "%016llx\n",
                 r.allocator.c_str(),
                 static_cast<unsigned long long>(
                     r.stripes.cross_thread_collisions),
                 static_cast<unsigned long long>(
                     r.stripes.same_thread_collisions),
                 r.stripes.collision_ratio(),
                 static_cast<unsigned long long>(r.stripes.peak_live_blocks),
                 100.0 * r.cache.l1_miss_ratio(),
                 static_cast<unsigned long long>(r.os_reserved),
                 static_cast<double>(r.cycles) / 1e6,
                 static_cast<unsigned long long>(r.address_fingerprint));
  }
}

void publish_metrics(const ReplayResult& r, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "mallocs", r.mallocs);
  reg.set_counter(prefix + "frees", r.frees);
  reg.set_counter(prefix + "unmatched_frees", r.unmatched_frees);
  if (r.oom_records > 0) reg.set_counter(prefix + "oom_records", r.oom_records);
  reg.set_counter(prefix + "tx_commits", r.tx_commits);
  reg.set_counter(prefix + "tx_aborts", r.tx_aborts);
  reg.set_counter(prefix + "cycles", r.cycles);
  reg.set_counter(prefix + "os_reserved", r.os_reserved);
  reg.set_counter(prefix + "bytes_requested", r.bytes_requested);
  reg.set_counter(prefix + "live_at_end", r.live_at_end);
  reg.set_counter(prefix + "stripe.cross_thread_collisions",
                  r.stripes.cross_thread_collisions);
  reg.set_counter(prefix + "stripe.same_thread_collisions",
                  r.stripes.same_thread_collisions);
  reg.set_counter(prefix + "stripe.peak_live_blocks",
                  r.stripes.peak_live_blocks);
  reg.set_gauge(prefix + "stripe.collision_ratio",
                r.stripes.collision_ratio());
  reg.set_gauge(prefix + "l1_miss_ratio", r.cache.l1_miss_ratio());
  alloc::publish_metrics(r.profile, reg, prefix + "alloc.");
}

}  // namespace tmx::replay
