// The vector-clock happens-before race detector.
//
// Epoch discipline (FastTrack-style): thread t's clock component C_t[t]
// advances at every *release* operation — STM commit, SpinLock unlock,
// barrier arrival, fork, worker completion at join. An access by t is
// stamped with the epoch (t, C_t[t]); a later access by u is ordered after
// it iff that clock value has reached u, i.e. clk <= C_u[t]. The
// synchronizes-with edges mirror exactly what the runtime's C++ atomics
// provide (see DESIGN.md "The happens-before model"):
//
//   * Tx commit —(global version clock)→ later Tx begin / snapshot extend.
//     A commit's fetch_add on the clock is a release the begin's acquire
//     load genuinely synchronizes with, so modeling it as a VC release into
//     `global_release` and an acquire from it is faithful, not heuristic.
//   * SpinLock unlock →(per-lock VC)→ later lock/try_lock success.
//   * Barrier arrive →(per-barrier, phase-parity-buffered VC)→ depart.
//   * run_parallel fork → every worker; every worker → join.
//
// Transactional accesses are recorded but never race each other: the STM's
// own locking/validation serializes them. A race therefore always involves
// at least one naked access — which is precisely the transactional-
// discipline bug the checker exists to find.

#include <algorithm>
#include <string>

#include "check/check.hpp"
#include "check/check_internal.hpp"
#include "sim/engine.hpp"

namespace tmx::check::detail {

namespace {

// Byte mask (bit per byte) of an access of `bytes` bytes at offset `off`
// within its 8-byte word.
std::uint8_t word_byte_mask(unsigned off, unsigned n) {
  return static_cast<std::uint8_t>(((1u << n) - 1u) << off);
}

void report_race(State& s, int tid, std::uintptr_t addr, bool write,
                 bool is_tx, const char* site, const AccessRec& other) {
  Report r;
  r.kind = ReportKind::kRace;
  r.tid = tid;
  r.cycle = sim::now_cycles();
  r.addr = addr;
  r.stripe = stripe_of(addr);
  r.site = site_or(tid, site);
  r.other_tid = other.tid;
  r.other_cycle = other.cycle;
  r.other_site = other.site != nullptr ? other.site : "?";
  r.detail = std::string(is_tx ? "tx " : "naked ") +
             (write ? "write" : "read") + " races with " +
             (other.is_tx ? "tx " : "naked ") +
             (other.is_write ? "write" : "read");
  static_cast<void>(s);
  emit(std::move(r));
}

// Checks one word-granular access against the shadow records and installs
// it. `mask` selects the touched bytes of the word.
void word_access(State& s, int tid, std::uintptr_t word, std::uint8_t mask,
                 bool write, bool is_tx, const char* site) {
  const VectorClock& my = s.vc[static_cast<std::size_t>(tid)];
  ShadowWord& sw = s.shadow[word];
  for (const AccessRec& rec : sw.recs) {
    if ((rec.mask & mask) == 0) continue;        // disjoint bytes
    if (!write && !rec.is_write) continue;       // read-read never conflicts
    if (rec.tid == tid) continue;                // program order
    if (is_tx && rec.is_tx) continue;            // the STM serializes these
    if (rec.clk <= my.c[rec.tid]) continue;      // happens-before
    report_race(s, tid, word, write, is_tx, site, rec);
  }
  // Supersede: a write dominates every record that happens-before it on its
  // bytes (transitivity carries their edges); a read supersedes only the
  // thread's own earlier reads. Records already reported as racing are
  // cleared too — the dedup in emit() keeps the noise down anyway.
  for (AccessRec& rec : sw.recs) {
    if ((rec.mask & mask) == 0) continue;
    if (write || (rec.tid == tid && !rec.is_write)) {
      rec.mask &= static_cast<std::uint8_t>(~mask);
    }
  }
  sw.recs.erase(std::remove_if(sw.recs.begin(), sw.recs.end(),
                               [](const AccessRec& r) { return r.mask == 0; }),
                sw.recs.end());
  AccessRec rec;
  rec.clk = my.c[static_cast<std::size_t>(tid)];
  rec.cycle = sim::now_cycles();
  rec.site = site_or(tid, site);
  rec.tid = static_cast<std::uint8_t>(tid);
  rec.mask = mask;
  rec.is_write = write;
  rec.is_tx = is_tx;
  sw.recs.push_back(rec);
}

}  // namespace

void race_access(int tid, std::uintptr_t addr, std::size_t bytes, bool write,
                 bool is_tx, const char* site) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  if (tid < 0 || tid >= kMaxThreads || bytes == 0) return;
  // Split the byte range into word-granular accesses.
  std::uintptr_t a = addr;
  std::size_t n = bytes;
  while (n > 0) {
    const std::uintptr_t word = round_down(a, 8);
    const unsigned off = static_cast<unsigned>(a - word);
    const unsigned take = static_cast<unsigned>(
        n < static_cast<std::size_t>(8 - off) ? n : 8 - off);
    word_access(*s, tid, word, word_byte_mask(off, take), write, is_tx, site);
    a += take;
    n -= take;
  }
}

void race_acquire_global(int tid) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  s->vc[static_cast<std::size_t>(tid)].join(s->global_release);
}

void race_release_global(int tid) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  VectorClock& my = s->vc[static_cast<std::size_t>(tid)];
  s->global_release.join(my);
  ++my.c[static_cast<std::size_t>(tid)];
}

void race_fork(int threads) {
  State* s = state();
  if (s == nullptr) return;
  s->nthreads = threads;
  s->in_parallel = true;
  if (!s->cfg.race) return;
  // Everything the forking thread (worker 0) did so far happens-before
  // every worker's first action. Each worker then bumps its own component:
  // its first epoch must exceed every other thread's knowledge of it (all
  // clocks start at zero, and a previous region's join equalizes them), or
  // the very first unsynchronized conflict would pass the `clk <= C_u[t]`
  // test and go unreported.
  VectorClock& main_vc = s->vc[0];
  for (int t = 1; t < threads && t < kMaxThreads; ++t) {
    VectorClock& w = s->vc[static_cast<std::size_t>(t)];
    w.join(main_vc);
    ++w.c[static_cast<std::size_t>(t)];
  }
  ++main_vc.c[0];
}

void race_join(int threads) {
  State* s = state();
  if (s == nullptr) return;
  s->in_parallel = false;
  if (!s->cfg.race) return;
  // Every worker's last action happens-before everything after the join.
  for (int t = 1; t < threads && t < kMaxThreads; ++t) {
    VectorClock& w = s->vc[static_cast<std::size_t>(t)];
    ++w.c[static_cast<std::size_t>(t)];
    s->vc[0].join(w);
  }
}

void race_lock_acquired(int tid, const void* lock) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  auto it = s->locks.find(lock);
  if (it != s->locks.end()) {
    s->vc[static_cast<std::size_t>(tid)].join(it->second);
  }
}

void race_lock_released(int tid, const void* lock) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  VectorClock& my = s->vc[static_cast<std::size_t>(tid)];
  // Join rather than assign: a lock acquired before the checker was watching
  // could otherwise lose a prior holder's edges and fabricate a race.
  s->locks[lock].join(my);
  ++my.c[static_cast<std::size_t>(tid)];
}

void race_barrier_arrive(int tid, const void* barrier) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  BarrierState& b = s->barriers[barrier];
  const std::uint32_t phase = b.arrivals[static_cast<std::size_t>(tid)]++;
  VectorClock& my = s->vc[static_cast<std::size_t>(tid)];
  b.gather[phase & 1].join(my);
  ++my.c[static_cast<std::size_t>(tid)];
}

void race_barrier_depart(int tid, const void* barrier) {
  State* s = state();
  if (s == nullptr || !s->cfg.race || !s->in_parallel) return;
  BarrierState& b = s->barriers[barrier];
  const std::uint32_t arrivals = b.arrivals[static_cast<std::size_t>(tid)];
  if (arrivals == 0) return;  // arrived before the checker was opened
  s->vc[static_cast<std::size_t>(tid)].join(b.gather[(arrivals - 1) & 1]);
}

}  // namespace tmx::check::detail
